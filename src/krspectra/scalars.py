"""Exact arithmetic foundation.

Gaussian rationals, exact matrices, matrix-valued univariate rational
functions with factored pole multisets, the normal-ordered algebra of
differential operators, and column determinants.

Everything here is immutable after construction and exact; floats appear
as read-outs (`Mat.max_abs`, `block_views`) and, in
`commutator_certificate`, as integers of magnitude at most 2^53, where
float64 arithmetic is exact.
Denominators of rational functions are never stored as unfactored polynomials:
a pole multiset is part of the data, so no factorization is ever needed.
"""

from __future__ import annotations

import sys
from fractions import Fraction
from itertools import combinations
from math import comb, gcd, lcm, log2

import numpy as np


# ---------------------------------------------------------------------------
# Gaussian rationals


def _frac(x) -> Fraction:
    if isinstance(x, Fraction):
        return x
    if isinstance(x, int):
        return Fraction(x)
    if isinstance(x, str):
        return Fraction(x)
    raise TypeError(f"cannot build an exact rational from {x!r}")


_MODULUS = sys.hash_info.modulus
_HASH_INF = sys.hash_info.inf


def _fraction_text(n, d) -> str:
    """str(Fraction(n, d)) for d > 0, with no Fraction built."""
    g = gcd(n, d)
    n, d = n // g, d // g
    return str(n) if d == 1 else f"{n}/{d}"


def _fraction_hash(n, d) -> int:
    """hash(Fraction(n, d)) for d > 0, with no Fraction built: Python's hash
    of a rational, n/d reduced modulo the prime `sys.hash_info.modulus`."""
    if d == 1:
        return hash(n)
    g = gcd(n, d)
    if g != 1:
        n, d = n // g, d // g
        if d == 1:
            return hash(n)
    try:
        dinv = pow(d, -1, _MODULUS)
    except ValueError:
        h = _HASH_INF
    else:
        h = hash(hash(abs(n)) * dinv)
    h = h if n >= 0 else -h
    return -2 if h == -1 else h


class QQi:
    """A Gaussian rational (r + s*i) / d, in the format of a `Mat` entry.

    Held as Python ints: the Gaussian-integer numerator r + s*i over its
    least denominator d > 0, so gcd(r, s, d) = 1 and zero is (0, 0, 1).
    Equal values have equal fields, and arithmetic runs on the ints with
    one gcd where a denominator can shrink; no `Fraction` is built.  The
    hash is Python's hash of the value: hash(re) for a real value, so it
    equals the hash of the equal int or `Fraction`, and hash((re, im))
    otherwise.  `re` and `im` read the parts as `Fraction`s.
    """

    __slots__ = ("_r", "_s", "_d", "_h")

    def __init__(self, re=0, im=0):
        # coerces user input; arithmetic builds its results with _qqi instead
        re, im = _frac(re), _frac(im)
        a, b = re._denominator, im._denominator
        d = a if b == 1 or b == a else lcm(a, b)
        _set_r(self, re._numerator * (d // a))
        _set_s(self, im._numerator * (d // b))
        _set_d(self, d)

    def __setattr__(self, *a):
        raise AttributeError("QQi is immutable")

    @property
    def re(self) -> Fraction:
        return Fraction(self._r, self._d) if self._r else _ZERO_F

    @property
    def im(self) -> Fraction:
        return Fraction(self._s, self._d) if self._s else _ZERO_F

    # -- coercion

    @staticmethod
    def of(x) -> "QQi":
        if x.__class__ is QQi:
            return x
        if isinstance(x, (int, Fraction)):
            return _qqi(*_gauss(x))
        return QQi(x)

    # -- ring/field operations

    # A zero operand short-cuts +, - and *: the other operand (or zero) is
    # returned as it is.  An int operand adds or multiplies on the fields
    # directly, and sums over one denominator skip the gcd when it is 1.

    def __add__(self, other):
        if other.__class__ is not QQi:
            if other.__class__ is int:
                if not other:
                    return self
                return _qqi(self._r + other * self._d, self._s, self._d)
            other = QQi.of(other)
        br, bs, bd = other._r, other._s, other._d
        if not (br or bs):
            return self
        ar, as_, ad = self._r, self._s, self._d
        if not (ar or as_):
            return other
        if ad == bd:
            if ad == 1:
                return _qqi(ar + br, as_ + bs, 1)
            return _qqi_lowest(ar + br, as_ + bs, ad)
        return _qqi_lowest(ar * bd + br * ad, as_ * bd + bs * ad, ad * bd)

    __radd__ = __add__

    def __neg__(self):
        if not (self._r or self._s):
            return self
        return _qqi(-self._r, -self._s, self._d)

    def __sub__(self, other):
        if other.__class__ is not QQi:
            if other.__class__ is int:
                if not other:
                    return self
                return _qqi(self._r - other * self._d, self._s, self._d)
            other = QQi.of(other)
        br, bs, bd = other._r, other._s, other._d
        if not (br or bs):
            return self
        ar, as_, ad = self._r, self._s, self._d
        if not (ar or as_):
            return _qqi(-br, -bs, bd)
        if ad == bd:
            if ad == 1:
                return _qqi(ar - br, as_ - bs, 1)
            return _qqi_lowest(ar - br, as_ - bs, ad)
        return _qqi_lowest(ar * bd - br * ad, as_ * bd - bs * ad, ad * bd)

    def __rsub__(self, other):
        return QQi.of(other) - self

    def __mul__(self, other):
        if other.__class__ is QQi:
            br, bs, bd = other._r, other._s, other._d
        elif isinstance(other, int):
            br, bs, bd = other, 0, 1
        elif isinstance(other, Fraction):
            br, bs, bd = other._numerator, 0, other._denominator
        else:
            return NotImplemented
        ar, as_, ad = self._r, self._s, self._d
        if not (ar or as_) or not (br or bs):
            return QQI_ZERO
        d = ad * bd
        if as_ or bs:
            r, s = ar * br - as_ * bs, ar * bs + as_ * br
        else:
            r, s = ar * br, 0
        return _qqi(r, s, 1) if d == 1 else _qqi_lowest(r, s, d)

    __rmul__ = __mul__

    def inverse(self) -> "QQi":
        r, s, d = self._r, self._s, self._d
        n = r * r + s * s
        if not n:
            raise ZeroDivisionError("inverse of zero Gaussian rational")
        return _qqi_lowest(d * r, -d * s, n)

    def __truediv__(self, other):
        return self * QQi.of(other).inverse()

    def __rtruediv__(self, other):
        return QQi.of(other) * self.inverse()

    def __pow__(self, k: int):
        if k < 0:
            return self.inverse() ** (-k)
        out = QQI_ONE
        base = self
        while k:
            if k & 1:
                out = out * base
            base = base * base
            k >>= 1
        return out

    def parts_text(self) -> tuple:
        """(str(self.re), str(self.im)), formatted from the integers."""
        return _fraction_text(self._r, self._d), _fraction_text(self._s, self._d)

    def abs2(self) -> Fraction:
        return Fraction(self._r * self._r + self._s * self._s, self._d * self._d)

    # -- predicates

    def __bool__(self):
        return self._r != 0 or self._s != 0

    def __eq__(self, other):
        if other.__class__ is QQi:
            return self._r == other._r and self._s == other._s and self._d == other._d
        if isinstance(other, int):
            return not self._s and self._d == 1 and self._r == other
        if isinstance(other, Fraction):
            return not self._s and self._r == other._numerator and self._d == other._denominator
        return NotImplemented

    def __hash__(self):
        try:
            return self._h
        except AttributeError:
            h = _fraction_hash(self._r, self._d)
            if self._s:
                h = hash((h, _fraction_hash(self._s, self._d)))
            _set_h(self, h)
            return h

    def __complex__(self):
        return complex(self._r / self._d, self._s / self._d)

    # -- text form: "a/b", "c/d*i", "a/b+c/d*i", "a/b-c/d*i"

    def __str__(self):
        # formatted from the integers, as `parts_text`, with no Fraction built
        r, s, d = self._r, self._s, self._d
        if not s:
            return _fraction_text(r, d)
        ipart = "i" if abs(s) == d else f"{_fraction_text(abs(s), d)}*i"
        if not r:
            return ipart if s > 0 else "-" + ipart
        return f"{_fraction_text(r, d)}{'-' if s < 0 else '+'}{ipart}"

    def __repr__(self):
        return f"QQi({self})"

    @staticmethod
    def parse(text: str) -> "QQi":
        """Inverse of str(); accepts forms like 3, -1/2, i, -i, 2*i, 1+2*i, 1/2-3/4*i."""
        s = text.strip().replace(" ", "")
        if not s:
            raise ValueError("empty scalar")
        if "i" not in s:
            return QQi(Fraction(s))
        body = s[:-1]
        if body.endswith("*"):
            body = body[:-1]
        # split off a real part, if any: find a +/- that is not leading
        for pos in range(len(body) - 1, 0, -1):
            if body[pos] in "+-" and body[pos - 1] not in "+-/*":
                re_s, im_s = body[:pos], body[pos:]
                break
        else:
            re_s, im_s = "", body
        if im_s in ("", "+"):
            im = Fraction(1)
        elif im_s == "-":
            im = Fraction(-1)
        else:
            im = Fraction(im_s)
        re = Fraction(re_s) if re_s else Fraction(0)
        return QQi(re, im)


_ZERO_F = Fraction(0)
_new_object = object.__new__
_set_r = QQi._r.__set__
_set_s = QQi._s.__set__
_set_d = QQi._d.__set__
_set_h = QQi._h.__set__


def _qqi(r, s, d) -> QQi:
    """The QQi (r + s*i) / d from fields already in lowest terms: how
    arithmetic builds results."""
    q = _new_object(QQi)
    _set_r(q, r)
    _set_s(q, s)
    _set_d(q, d)
    return q


def _qqi_lowest(r, s, d) -> QQi:
    """The QQi (r + s*i) / d for d > 0, brought to lowest terms by one gcd."""
    g = gcd(r, s, d)
    if g != 1:
        return _qqi(r // g, s // g, d // g)
    return _qqi(r, s, d)


QQI_ZERO = QQi(0)
QQI_ONE = QQi(1)


def unit_circle_point(t) -> QQi:
    """Exact unit-modulus Gaussian rational at angle 2*atan(t), t rational.

    Pythagorean parametrization ((1-t^2) + 2t i)/(1+t^2); avoids exp entirely.
    """
    t = _frac(t)
    d = 1 + t * t
    return QQi((1 - t * t) / d, 2 * t / d)


# ---------------------------------------------------------------------------
# Exact matrices over Gaussian-integer numerators


def _gauss(x):
    """(re, im, d): an exact scalar as the Gaussian integer re + im*i over its
    least denominator d > 0; a QQi holds them as its fields."""
    if x.__class__ is QQi:
        return x._r, x._s, x._d
    if isinstance(x, int):
        return x, 0, 1
    if isinstance(x, Fraction):
        return x._numerator, 0, x._denominator
    return _gauss(QQi.of(x))


def _entry(v, d) -> QQi:
    """The QQi (re + im*i) / d for a stored numerator v = (re, im)."""
    return _qqi_lowest(v[0], v[1], d)


class Mat:
    """Exact matrix over QQi; treat instances as immutable.

    The one stored format: a denominator `den` > 0 and sparse rows `nums`,
    where nums[i] maps a column j to the Gaussian-integer numerator (re, im)
    of den * m[i, j], and zero entries are absent.  `den` is the lcm of the
    reduced entry denominators, so equal matrices have equal fields.  All
    arithmetic runs on Python ints and restores that form by one gcd pass;
    `m[i, j]` gives a QQi entry to callers that read one.
    """

    __slots__ = ("nr", "nc", "den", "nums")

    def __init__(self, rows):
        """The matrix of rows of exact values: ints, Fractions, QQi or their
        text forms."""
        parts = [{j: g for j, x in enumerate(r) if (g := _gauss(x))[0] or g[1]} for r in rows]
        d = lcm(*(e for row in parts for _, _, e in row.values()))
        self.nr, self.nc, self.den = len(rows), len(rows[0]) if rows else 0, d
        self.nums = [
            {j: (re * (d // e), im * (d // e)) for j, (re, im, e) in row.items()}
            for row in parts
        ]

    @staticmethod
    def from_numerators(nc, rows):
        """The Mat whose row i is nums_i / d_i, for rows = [(d_i, nums_i)] with
        d_i > 0 and nums_i sparse nonzero Gaussian-integer numerators
        {j: (re, im)}; brought to the lcm of the d_i and one gcd pass."""
        den = lcm(*(d for d, _ in rows))
        nums = []
        for d, row in rows:
            s = den // d
            nums.append({j: (re * s, im * s) for j, (re, im) in row.items()})
        return _reduced(len(rows), nc, den, nums)

    @staticmethod
    def zeros(nr, nc=None):
        return _mat(nr, nr if nc is None else nc, 1, [{} for _ in range(nr)])

    @staticmethod
    def identity(n):
        return _mat(n, n, 1, [{i: (1, 0)} for i in range(n)])

    @staticmethod
    def unit(nr, nc, i, j, value=QQI_ONE):
        """The matrix with `value` at (i, j) and zeros elsewhere."""
        re, im, d = _gauss(value)
        nums = [{} for _ in range(nr)]
        if re or im:
            nums[i][j] = (re, im)
        else:
            d = 1
        return _mat(nr, nc, d, nums)

    def __getitem__(self, ij):
        i, j = ij
        v = self.nums[i].get(j)
        return QQI_ZERO if v is None else _entry(v, self.den)

    def _plus(self, other, sign):
        """self + sign * other, for sign = 1 or -1."""
        if not isinstance(other, Mat):
            return NotImplemented
        da, db = self.den, other.den
        if da == db:
            sa, sb = 1, sign
        else:
            g = gcd(da, db)
            sa, sb = db // g, sign * (da // g)
        out = []
        for ra, rb in zip(self.nums, other.nums):
            row = dict(ra) if sa == 1 else {j: (re * sa, im * sa) for j, (re, im) in ra.items()}
            for j, (re, im) in rb.items():
                old_re, old_im = row.get(j, (0, 0))
                re, im = old_re + re * sb, old_im + im * sb
                if re or im:
                    row[j] = (re, im)
                else:
                    del row[j]
            out.append(row)
        return _reduced(self.nr, self.nc, da * sa, out)

    def __add__(self, other):
        return self._plus(other, 1)

    def __sub__(self, other):
        return self._plus(other, -1)

    def __neg__(self):
        return _mat(
            self.nr, self.nc, self.den,
            [{j: (-re, -im) for j, (re, im) in row.items()} for row in self.nums],
        )

    def __mul__(self, other):
        if isinstance(other, Mat):
            if self.nc != other.nr:
                raise ValueError(f"dimension mismatch {self.nc} vs {other.nr}")
            nc, brows = other.nc, other.nums
            out = []
            for arow in self.nums:
                re, im = _row_numerators(arow, brows, nc)
                out.append({j: (x, y) for j, (x, y) in enumerate(zip(re, im)) if x or y})
            return _reduced(self.nr, nc, self.den * other.den, out)
        sr, si, ds = _gauss(other)
        if not (sr or si):
            return Mat.zeros(self.nr, self.nc)
        out = [
            {j: (re * sr - im * si, re * si + im * sr) for j, (re, im) in row.items()}
            for row in self.nums
        ]
        return _reduced(self.nr, self.nc, self.den * ds, out)

    def __rmul__(self, other):
        # only a scalar reaches here, and scalars commute with matrices
        return self * other

    def __eq__(self, other):
        if not isinstance(other, Mat):
            return NotImplemented
        # equal nums have equal lengths, so equal row counts
        return self.nc == other.nc and self.den == other.den and self.nums == other.nums

    def __hash__(self):
        return hash((self.nr, self.nc, self.den, tuple(frozenset(r.items()) for r in self.nums)))

    def __bool__(self):
        return any(self.nums)

    def __repr__(self):
        return f"Mat({self.nr}x{self.nc})"

    def transpose(self):
        cols = [{} for _ in range(self.nc)]
        for i, row in enumerate(self.nums):
            for j, v in row.items():
                cols[j][i] = v
        return _mat(self.nc, self.nr, self.den, cols)

    def conj(self):
        return _mat(
            self.nr, self.nc, self.den,
            [{j: (re, -im) for j, (re, im) in row.items()} for row in self.nums],
        )

    def conj_transpose(self):
        return self.conj().transpose()

    def kron(self, other):
        nc_b = other.nc
        out = []
        for ra in self.nums:
            for rb in other.nums:
                row = {}
                for ja, (ar, ai) in ra.items():
                    off = ja * nc_b
                    for jb, (br, bi) in rb.items():
                        row[off + jb] = (ar * br - ai * bi, ar * bi + ai * br)
                out.append(row)
        return _reduced(self.nr * other.nr, self.nc * nc_b, self.den * other.den, out)

    def max_abs(self) -> float:
        # one correctly rounded int division, as float(QQi.abs2()) rounds
        top = max((re * re + im * im for row in self.nums for re, im in row.values()), default=0)
        return (top / (self.den * self.den)) ** 0.5


def _mat(nr, nc, den, nums) -> Mat:
    """A Mat from fields already in canonical form: how arithmetic builds results."""
    m = _new_object(Mat)
    m.nr, m.nc, m.den, m.nums = nr, nc, den, nums
    return m


def kron_identities(before, m: Mat, after) -> Mat:
    """I_before (x) m (x) I_after, by index arithmetic.

    Entry (i, j) of m lands at ((a nr + i) after + b, (a nc + j) after + b)
    for every a < before and b < after, with m's own denominator and
    numerators: no product is formed and no gcd pass is needed.
    """
    nc = m.nc
    nums = [
        {(a * nc + j) * after + b: v for j, v in row.items()}
        for a in range(before)
        for row in m.nums
        for b in range(after)
    ]
    return _mat(before * m.nr * after, before * nc * after, m.den, nums)


def _reduced(nr, nc, den, nums) -> Mat:
    """The Mat with numerator rows `nums` over `den`, in canonical form.

    Divides den and every numerator by their gcd; the scan stops as soon as
    the gcd reaches one, which is the usual case.
    """
    g = den
    for row in nums:
        if g == 1:
            break
        for re, im in row.values():
            g = gcd(g, re, im)
            if g == 1:
                break
    if g != 1:
        den //= g
        nums = [{j: (re // g, im // g) for j, (re, im) in row.items()} for row in nums]
    return _mat(nr, nc, den, nums)


def _row_numerators(arow, brows, nc):
    """Numerators (re list, im list) of (row arow) * B over D_A * D_B."""
    acc = [0] * nc
    acc_im = [0] * nc
    for k, (ar, ai) in arow.items():
        for j, (br, bi) in brows[k].items():
            acc[j] += ar * br - ai * bi
            acc_im[j] += ar * bi + ai * br
    return acc, acc_im


def _lowest(d, vec):
    """(d, vec) divided by the gcd of d > 0 and every part of the sparse
    Gaussian-integer numerators vec; the scan stops once the gcd reaches one."""
    g = d
    for re, im in vec.values():
        g = gcd(g, re, im)
        if g == 1:
            return d, vec
    return d // g, {k: (re // g, im // g) for k, (re, im) in vec.items()}


def _eliminate(d, vec, hits):
    """The vector vec / d minus the sum of (c / d) * (row / dr) over the
    (c, dr, row) in hits, as the pair (d * L, L * vec - sum of c * (L / dr) * row)
    with L the lcm of the dr.  Each c = (re, im) multiplies as a Gaussian
    integer; the result is not in lowest terms."""
    big = lcm(*(dr for _, dr, _ in hits))
    out = {k: (re * big, im * big) for k, (re, im) in vec.items()} if big != 1 else dict(vec)
    for (cr, ci), dr, row in hits:
        if dr != big:
            s = big // dr
            cr, ci = cr * s, ci * s
        for k, (re, im) in row.items():
            x, y = out.get(k, (0, 0))
            x -= cr * re - ci * im
            y -= cr * im + ci * re
            if x or y:
                out[k] = (x, y)
            else:
                del out[k]
    return d * big, out


class Echelon:
    """Reduced row echelon basis of sparse vectors: the package's one elimination.

    A vector is a dict from orderable keys to nonzero Gaussian-integer
    numerators (re, im), the stored format of `Mat` rows; absent keys are
    zero.  `rows` maps each pivot p to a stored row (D, nums), the vector
    nums / D, in lowest terms: D > 0, gcd(D, every part of nums) = 1 and
    nums[p] = (D, 0), so the row is 1 at p; it is 0 at every other pivot.
    An inserted vector's pivot is the least key of its reduction.  All work
    runs on Python ints.
    """

    __slots__ = ("rows",)

    def __init__(self):
        self.rows = {}

    def reduce(self, vec):
        """(d, r): vec minus its part in the span is r / d, not in lowest
        terms, and r is empty exactly when vec is in the span.

        Row p is 1 at p and 0 at every other pivot, so the part in the span
        is the sum of vec[p] times row p over the keys p of vec that are
        pivots, subtracted in one pass.
        """
        rows = self.rows
        hits = [(c, *rows[p]) for p, c in vec.items() if p in rows]
        return _eliminate(1, vec, hits) if hits else (1, vec)

    def insert(self, vec):
        """Reduce and store vec; returns its pivot, or None when it is dependent.

        The reduction r is scaled to 1 at its pivot p by conj(r[p]) / |r[p]|^2,
        and the new row is subtracted from every stored row that is not 0 at p.
        """
        _, vec = self.reduce(vec)
        if not vec:
            return None
        piv = min(vec)
        a, b = vec[piv]
        vec = {k: (re * a + im * b, im * a - re * b) for k, (re, im) in vec.items()}
        new = _lowest(a * a + b * b, vec)
        rows = self.rows
        for p, (dr, row) in rows.items():
            c = row.get(piv)
            if c:
                rows[p] = _lowest(*_eliminate(dr, row, [(c, *new)]))
        rows[piv] = new
        return piv

    def coordinates(self, vec):
        """The numerators {pivot: c} of vec's coefficients on the stored rows.

        Row p is 1 at p and 0 at every other pivot, so the coefficient of
        row p is vec[p], over vec's own denominator.  Raises ValueError if vec
        is not in the span.
        """
        if self.reduce(vec)[1]:
            raise ValueError("vector not in the span")
        rows = self.rows
        return {p: c for p, c in vec.items() if p in rows}


def mat_inverse(m: Mat) -> Mat:
    """Exact inverse of a square matrix; ZeroDivisionError if singular.

    Reduces the rows of den * [M | I], keyed (0, j) in M and (1, j) in I.  A
    pivot in the I half means M is singular; otherwise the stored row (0, i)
    is [e_i | row i of the inverse] over its own denominator.
    """
    n = m.nr
    ech = Echelon()
    for i, row in enumerate(m.nums):
        vec = {(0, j): v for j, v in row.items()}
        vec[1, i] = (m.den, 0)
        half, _ = ech.insert(vec)
        if half:
            raise ZeroDivisionError("inverse of a singular matrix")
    inverse = []
    for i in range(n):
        d, row = ech.rows[0, i]
        inverse.append((d, {j: v for (half, j), v in row.items() if half}))
    return Mat.from_numerators(n, inverse)


def span_rank(mats) -> int:
    """Rank of the linear span of a list of equally sized matrices.

    Each Mat enters as one sparse vector of its stored numerators, keyed
    (i, j); its denominator is dropped, as scaling a vector leaves the rank
    alone.  No QQi or Fraction is built.
    """
    ech = Echelon()
    return sum(
        ech.insert({(i, j): v for i, row in enumerate(m.nums) for j, v in row.items()})
        is not None
        for m in mats
    )


# ---------------------------------------------------------------------------
# Weight blocks: float views and the exact commutator certificate of
# matrices that map each block of a basis partition to itself


class Blocks:
    """A partition of the basis indices range(dim) into labelled blocks.

    `parts[k]` lists the indices of block k in increasing order, `labels[k]`
    names it (its weight, for `MatrixRep.weight_blocks`), and `groups` maps
    each block size to its blocks in order.  Per index i, `of[i]` is its
    block, `size[i]` its block's size, `slot[i]` the place of that block among
    the blocks of its size, `rank[i]` the place of i in the parts laid end to
    end and `start[i]` the rank its block starts at (the layout of
    `block_views`): j is in i's block iff 0 <= rank[j] - start[i] < size[i].
    """

    __slots__ = ("parts", "labels", "groups", "of", "size", "slot", "rank", "start")

    def __init__(self, parts, labels):
        self.parts = [list(p) for p in parts]
        self.labels = list(labels)
        dim = sum(map(len, self.parts))
        self.groups = {}
        self.of, self.size, self.slot, self.rank, self.start = ([0] * dim for _ in range(5))
        first = 0
        for k, part in enumerate(self.parts):
            same = self.groups.setdefault(len(part), [])
            for p, i in enumerate(part):
                self.of[i], self.size[i], self.slot[i] = k, len(part), len(same)
                self.rank[i], self.start[i] = first + p, first
            same.append(k)
            first += len(part)


class BlockLeak(ValueError):
    """Matrix `matrix` of a list has an entry `entry` = (i, j) between two blocks."""

    def __init__(self, matrix, entry):
        super().__init__(f"matrix {matrix} has entry {entry} between two blocks")
        self.matrix, self.entry = matrix, entry


def _block_entries(mats, blocks, least, exact):
    """{b: (positions, re parts, im parts)} for each block size b >= least.

    The entries of the mats inside the blocks of size b, each at its flat
    position in a (blocks of size b, len(mats), b, b) array; exact: their
    numerators, else their values as floats, each part correctly rounded.
    Every stored entry is checked, in smaller blocks too: the first, mat by
    mat in row order, whose column leaves its row's block raises `BlockLeak`.
    """
    count = len(mats)
    size, slot, rank, start = blocks.size, blocks.slot, blocks.rank, blocks.start
    out = {b: ([], [], []) for b in blocks.groups if b >= least}
    for t, m in enumerate(mats):
        d = m.den
        for i, row in enumerate(m.nums):
            if not row:
                continue
            b, lo = size[i], start[i]
            if b < least:
                for j in row:
                    if not 0 <= rank[j] - lo < b:
                        raise BlockLeak(t, (i, j))
                continue
            at, xs, ys = out[b]
            # entry (i, j) sits at base + q, q = rank[j] - lo its place in the block
            base = ((slot[i] * count + t) * b + rank[i] - lo) * b
            if exact:
                for j, (re, im) in row.items():
                    q = rank[j] - lo
                    if not 0 <= q < b:
                        raise BlockLeak(t, (i, j))
                    at.append(base + q)
                    xs.append(re)
                    ys.append(im)
            else:
                for j, (re, im) in row.items():
                    q = rank[j] - lo
                    if not 0 <= q < b:
                        raise BlockLeak(t, (i, j))
                    at.append(base + q)
                    xs.append(re / d)
                    ys.append(im / d)
    return out


def block_views(mats, blocks: Blocks):
    """{b: complex128 array of shape (blocks of size b, len(mats), b, b)}:
    each mat restricted to each block of size b, each part of an entry
    correctly rounded; reads only the stored entries, and raises `BlockLeak`
    for a mat that does not map each block to itself."""
    out = {}
    for b, (at, xs, ys) in _block_entries(mats, blocks, 1, False).items():
        flat = np.zeros(len(blocks.groups[b]) * len(mats) * b * b, dtype=np.complex128)
        flat.real[at] = xs
        flat.imag[at] = ys
        out[b] = flat.reshape(len(blocks.groups[b]), len(mats), b, b)
    return out


# every integer of magnitude at most 2^53 is a float64, and so is every sum
# of such integers that stays at most 2^53
EXACT_FLOAT_BITS = 53


def balanced_limbs(values, bits, count):
    """(count, len(values)) int64 array: value = sum_l limb_l 2^(l bits), each
    limb in [-2^(bits-1), 2^(bits-1)); every |value| must be below
    2^(count bits - 2), which `limb_plan` guarantees."""
    big = np.array(values, dtype=object)
    mask = (1 << bits) - 1
    out = np.empty((count, len(values)), dtype=np.int64)
    for l in range(count):
        # the two's complement digits of each value
        out[l] = (big >> (l * bits)) & mask
    carry = np.zeros(len(values), dtype=np.int64)
    for l in range(count):
        digit = out[l] + carry
        carry = (digit >= 1 << (bits - 1)).astype(np.int64)
        out[l] = digit - (carry << bits)
    return out


def limb_plan(widest, block):
    """(L, nl, bound) for numerators of at most `widest` bits in blocks of
    at most `block` rows: the fewest limbs nl whose limb width L keeps every
    partial sum of a limb product of the 2*block-wide real embedding, at most
    2 block (2^(L-1))^2 = bound, within 2^53; L is then spread evenly."""
    top = (EXACT_FLOAT_BITS + 1 - (block - 1).bit_length()) // 2
    count = -(-(widest + 2) // top)
    bits = max(2, -(-(widest + 2) // count))
    return bits, count, block << (2 * bits - 1)


class BlockCertificate:
    """Exact verdicts on pairs of block-preserving matrices, with the bound
    that makes their float64 limb products exact."""

    def __init__(self, commute, limb_bits, limbs, bound):
        self.commute = commute  # one bool per pair, in the order given
        self.limb_bits = limb_bits
        self.limbs = limbs
        self.bound = bound

    def first_failure(self):
        return next((k for k, ok in enumerate(self.commute) if not ok), None)

    def report(self):
        return {
            "route": "float64 limb products on weight blocks, int64 carries",
            "limb_bits": self.limb_bits,
            "limbs": self.limbs,
            "bound_bits": round(log2(self.bound), 3),
            "exact_below_bits": EXACT_FLOAT_BITS,
            "pairs": len(self.commute),
        }


# float64 entries of one chunk of pair products, which caps the memory of a
# certificate whatever the family size
_CHUNK_FLOATS = 1 << 20


def limb_embeddings(mats, blocks: Blocks):
    """The limb plan (L, nl, bound) of the mats' numerators on the blocks
    larger than 1x1, and {b: (emb, col)} per such block size b.

    emb[g, t] stacks the real embeddings [[R, -I], [I, R]] of the nl limbs
    of mats[t] on block g, shape (nl 2b, 2b); col[g, t] sets their [R; I]
    side by side, shape (2b, nl b).  So emb[g, s] @ col[g, t] holds, in row
    block p and column block q, limb p of mats[s] times limb q of mats[t] on
    block g, as [re; im].  A mat that does not map each block to itself
    raises `BlockLeak`.
    """
    count = len(mats)
    entries = {b: e for b, e in _block_entries(mats, blocks, 2, True).items() if e[0]}
    widest = max(
        (max(max(v), -min(v)) for _, xs, ys in entries.values() for v in (xs, ys)),
        default=0,
    ).bit_length()
    plan = bits, nl, _ = limb_plan(widest, max(entries, default=1))
    out = {}
    for b, (at, xs, ys) in entries.items():
        nb = len(blocks.groups[b])
        parts = np.zeros((2, nl, nb * count * b * b))
        parts[:, :, at] = balanced_limbs(xs + ys, bits, nl).reshape(nl, 2, -1).swapaxes(0, 1)
        re, im = parts.reshape(2, nl, nb, count, b, b).transpose(0, 2, 3, 1, 4, 5)
        emb = np.empty((nb, count, nl, 2 * b, 2 * b))
        emb[..., :b, :b] = emb[..., b:, b:] = re
        emb[..., b:, :b] = im
        emb[..., :b, b:] = -im
        emb = emb.reshape(nb, count, nl * 2 * b, 2 * b)
        col = emb[:, :, :, :b].reshape(nb, count, nl, 2 * b, b).transpose(0, 1, 3, 2, 4)
        out[b] = emb, col.reshape(nb, count, 2 * b, nl * b)
    return plan, out


def limb_products(emb, col, left, right):
    """int64 array (blocks, pairs, nl, 2b, nl, b) whose [g, k, p, :, q, :] is
    limb p of mats[left[k]] times limb q of mats[right[k]] on block g, as
    [re; im], for one block size of `limb_embeddings`: one float64 matmul,
    exact under the bound of `limb_plan`."""
    nb, _, rows, width = emb.shape
    nl, b = rows // width, width // 2
    prod = np.matmul(emb[:, left], col[:, right]).astype(np.int64)
    return prod.reshape(nb, len(left), nl, width, nl, b)


def commutator_certificate(mats, blocks: Blocks, pairs) -> BlockCertificate:
    """Whether mats[i] * mats[j] == mats[j] * mats[i], exactly, for each pair
    (i, j) of `pairs`.

    The layout pass (`_block_entries`) refuses, by `BlockLeak`, a mat that
    does not map each block to itself, before any product; so a commutator
    is zero exactly when each block's is, and 1x1 blocks commute and are
    skipped.  AB and BA share the denominator, so their numerators are
    compared.  Each numerator part splits into nl balanced limbs of L bits
    (`limb_plan`), and per block size one batched float64 matmul of the real
    embeddings gives every limb-pair product of a chunk of pairs
    (`limb_products`).  Every operand and partial sum is an integer of
    magnitude at most the bound <= 2^53, so each product is exact in any
    summation order; AB - BA is then summed per limb weight and carried limb
    by limb in int64.
    """
    (bits, nl, bound), layouts = limb_embeddings(mats, blocks)
    mask = (1 << bits) - 1
    commute = np.ones(len(pairs), dtype=bool)
    left = np.array([i for i, _ in pairs], dtype=np.intp)
    right = np.array([j for _, j in pairs], dtype=np.intp)
    for b, (emb, col) in layouts.items():
        step = max(1, _CHUNK_FLOATS // (len(emb) * nl * nl * 2 * b * b))
        for s0 in range(0, len(pairs), step):
            a, c = left[s0 : s0 + step], right[s0 : s0 + step]
            diff = limb_products(emb, col, a, c) - limb_products(emb, col, c, a)
            carry = np.zeros((len(emb), len(a), 2 * b, b), dtype=np.int64)
            bad = np.zeros(carry.shape, dtype=bool)
            for w in range(2 * nl - 1):
                for p in range(max(0, w - nl + 1), min(w, nl - 1) + 1):
                    carry += diff[:, :, p, :, w - p, :]
                bad |= (carry & mask) != 0
                carry >>= bits
            bad |= carry != 0
            commute[s0 : s0 + step] &= ~bad.any(axis=(0, 2, 3))
    return BlockCertificate(commute.tolist(), bits, nl, bound)


# ---------------------------------------------------------------------------
# Polynomials (ascending coefficient lists of Mats)


def poly_trim(p):
    while p and not p[-1]:
        p = p[:-1]
    return p


def poly_add(a, b):
    if len(a) < len(b):
        a, b = b, a
    out = list(a)
    for i, c in enumerate(b):
        out[i] = out[i] + c
    return poly_trim(out)


def poly_sub(a, b):
    """a - b, trimmed; Mat differences need no negated copy of b."""
    out = [x - y for x, y in zip(a, b)]
    out += a[len(b) :] if len(a) > len(b) else [-y for y in b[len(a) :]]
    return poly_trim(out)


def poly_neg(a):
    return [-c for c in a]

def poly_scale(a, s):
    return poly_trim([c * s for c in a])


def _times_linear(a, p):
    """Coefficients of (u - p) * a(u) for a trimmed a: c_k = a_{k-1} - p a_k."""
    if not a:
        return []
    return [-(a[0] * p)] + [a[k - 1] - a[k] * p for k in range(1, len(a))] + [a[-1]]


def series_inverse(a, order):
    """First order+1 coefficients of 1/f for a scalar series f with f(0) != 0."""
    c0 = a[0]
    inv0 = c0.inverse()
    out = [inv0]
    for k in range(1, order + 1):
        s = QQI_ZERO
        for j in range(1, k + 1):
            aj = a[j] if j < len(a) else QQI_ZERO
            if aj:
                s = s + aj * out[k - j]
        out.append(-inv0 * s)
    return out


# ---------------------------------------------------------------------------
# Polynomial kernels on integer numerators
#
# The coefficients a_k = N_k / D_k of a polynomial are lifted to one
# denominator L = lcm(D_k), a point p is the Gaussian integer P over pd,
# and each kernel sums Gaussian-integer numerators on Python ints; every
# result coefficient is one Mat, built by one gcd pass in `_reduced`.


def _lift(a):
    """(L, scales): the lcm L of the coefficients' denominators and each L // D_k."""
    big = lcm(*(c.den for c in a))
    return big, [big // c.den for c in a]


def _taylor_terms(a, p, ks):
    """[(E, terms)] for each k in ks: coefficient k of a(t + p) in t is the
    sum over terms (wr, wi, nums) of (wr + wi*i) nums / E.

    Coefficient k is sum_{j >= k} C(j, k) p^(j - k) a_j.  For p = P / pd the
    weight of N_j is the Gaussian integer C(j, k) P^(j - k) pd^(deg - j)
    (L / D_j), over E = L pd^(deg - k); zero coefficients and zero weights
    are left out.  The lift to L is taken once for every k, and P^(j - k)
    one multiplication per j.
    """
    pr, pi, pd = _gauss(p)
    big, scales = _lift(a)
    deg = len(a) - 1
    out = []
    for k in ks:
        terms = []
        xr, xi = 1, 0  # P^(j - k)
        for j in range(k, deg + 1):
            c = a[j]
            if any(c.nums):
                w = scales[j] * pd ** (deg - j) * comb(j, k)
                terms.append((xr * w, xi * w, c.nums))
            if not (pr or pi):
                break
            xr, xi = xr * pr - xi * pi, xr * pi + xi * pr
        out.append((big * pd ** (deg - k), terms))
    return out


def _weighted_rows(terms, nr):
    """The nr rows of the sum over terms (wr, wi, nums) of (wr + wi*i) nums:
    sparse dicts of numerators, summed term by term over the stored rows;
    zero sums are dropped only when two terms met in one entry."""
    out = [{} for _ in range(nr)]
    merged = False
    for wr, wi, nums in terms:
        for acc, row in zip(out, nums):
            for j, (re, im) in row.items():
                if wi:
                    x, y = re * wr - im * wi, re * wi + im * wr
                else:
                    x, y = re * wr, im * wr
                old = acc.get(j)
                if old is None:
                    acc[j] = (x, y)
                else:
                    acc[j] = (old[0] + x, old[1] + y)
                    merged = True
    if merged:
        return [{j: v for j, v in acc.items() if v[0] or v[1]} for acc in out]
    return out


def linear_combination(terms, nr, nc) -> Mat:
    """The nr x nc Mat sum of w * m over `terms`, pairs (w, m) of an exact
    scalar w and an nr x nc Mat m.

    The terms are lifted to one denominator, the lcm of the products of the
    weights' and the Mats' denominators, every row is summed on Python ints
    in one pass (`_weighted_rows`) and the result is built by one gcd pass.
    """
    parts = []
    big = 1
    for w, m in terms:
        wr, wi, wd = _gauss(w)
        if wr or wi:
            d = wd * m.den
            parts.append((wr, wi, d, m.nums))
            if big % d:
                big = lcm(big, d)
    weighted = [(wr * (big // d), wi * (big // d), nums) for wr, wi, d, nums in parts]
    return _reduced(nr, nc, big, _weighted_rows(weighted, nr))


def poly_from_roots(points):
    """Ascending QQi coefficients of prod_p (u - p) over the points given."""
    out = [QQI_ONE]
    for p in points:
        out = _times_linear(out, p)
    return out


def _identity_multiple(m: Mat):
    """The numerator (re, im) of the scalar c with m == c * identity, over
    m.den, or None when m is no such multiple or is zero."""
    v = m.nums[0].get(0) if m.nr == m.nc and m.nr else None
    if v is None:
        return None
    for i, row in enumerate(m.nums):
        if len(row) != 1 or row.get(i) != v:
            return None
    return v


def _is_minus_identity(f):
    """Whether the RatFun f is the constant -identity."""
    if f.poles or len(f.num) != 1:
        return False
    m = f.num[0]
    return _identity_multiple(m) == (-m.den, 0)


def _taylor(a, p, ks):
    """The Mats of `_taylor_terms`: each summed on Python ints
    (`_weighted_rows`), each coefficient built by one gcd pass."""
    nr, nc = a[0].nr, a[0].nc
    return [
        _reduced(nr, nc, den, _weighted_rows(terms, nr)) for den, terms in _taylor_terms(a, p, ks)
    ]


def poly_eval(a, u):
    """a(u) for a nonempty list of Mat coefficients: coefficient 0 of a(t + u),
    with no Mat, QQi or Fraction built per Horner step."""
    return _taylor(a, u, (0,))[0]


def poly_shift(a, delta):
    """Coefficients of a(t + delta) in t, trimmed; a constant is returned as it is."""
    if len(a) < 2:
        return list(a)
    return poly_trim(_taylor(a, delta, range(len(a))))


def taylor_coefficients(a, p, count):
    """The first `count` coefficients of a(t + p) in t (fewer if a runs out).

    Each is read in closed form, so a residue pays only for the
    coefficients it reads; coefficient 0 is the value a(p), by `poly_eval`.
    """
    if not (a and count):
        return []
    rest = range(1, min(count, len(a)))
    return [poly_eval(a, p)] + (_taylor(a, p, rest) if rest else [])


def poly_mul(a, b):
    """Product of two nonempty lists of Mat coefficients under the matrix product.

    Coefficient k = sum_{i+j=k} a_i b_j is summed row by row over L_a L_b,
    the row products of each pair scaled by (L_a / D_i)(L_b / D_j), into
    one dict per row of each coefficient; zero sums are dropped only when
    two products met in one entry.  Each coefficient is built by one gcd
    pass, with no Mat per pair of coefficients.  A constant
    factor c * identity scales the other factor instead, and c = -1 negates it.
    """
    for const, other in ((a, b), (b, a)):
        if len(const) == 1:
            c = _identity_multiple(const[0])
            if c is not None:
                d = const[0].den
                if c == (-d, 0):
                    return poly_neg(other)
                return poly_scale(other, _entry(c, d))
    la, sa = _lift(a)
    lb, sb = _lift(b)
    nr, nc = a[0].nr, b[0].nc
    out = [[{} for _ in range(nr)] for _ in range(len(a) + len(b) - 1)]
    merged = False  # whether two products met in one entry, which may cancel
    for i, (ca, s_a) in enumerate(zip(a, sa)):
        for j, (cb, s_b) in enumerate(zip(b, sb)):
            bnums = cb.nums
            s = s_a * s_b
            for acc, arow in zip(out[i + j], ca.nums):
                for m, (ar, ai) in arow.items():
                    brow = bnums[m]
                    if not brow:
                        continue
                    if s != 1:
                        ar, ai = ar * s, ai * s
                    for col, (br, bi) in brow.items():
                        if ai:
                            x, y = ar * br - ai * bi, ar * bi + ai * br
                        else:
                            x, y = ar * br, ar * bi
                        old = acc.get(col)
                        if old is None:
                            acc[col] = (x, y)
                        else:
                            acc[col] = (old[0] + x, old[1] + y)
                            merged = True
    if merged:
        out = [[{col: v for col, v in acc.items() if v[0] or v[1]} for acc in rows] for rows in out]
    return poly_trim([_reduced(nr, nc, la * lb, rows) for rows in out])


# ---------------------------------------------------------------------------
# Rational functions with factored pole multisets


class RatFun:
    """num(u) / prod_p (u - p)^{m_p} with an explicit pole multiset.

    Numerator coefficients are Mats of one shape.  The trimmed numerator and
    the pole multiset are kept as given, so a pole may be removable; the
    zero function has no poles.  Laurent coefficients, the value at
    infinity, `is_zero` and `==` do not depend on it (`eval` refuses every
    pole it holds), and `cancel` removes the common (u - p) factors.
    """

    __slots__ = ("num", "poles", "_kept")

    def __init__(self, num, poles=None):
        self.num = poly_trim(list(num))
        self.poles = dict(poles or {}) if self.num else {}

    # -- constructors

    @staticmethod
    def const(c):
        return RatFun([c], {})

    # -- structure

    def is_zero(self):
        return not self.num

    def num_degree(self):
        return len(self.num) - 1

    def denom_degree(self):
        return sum(self.poles.values())

    # -- arithmetic

    @staticmethod
    def sum(terms):
        """The sum of RatFuns over their common pole multiset."""
        terms = [t for t in terms if t.num]
        if len(terms) < 2:
            return terms[0] if terms else RatFun([], {})
        poles = _common_poles(terms)
        total = []
        for t in terms:
            total = poly_add(total, t._lifted(poles))
        return RatFun(total, poles)

    def _lifted(self, poles):
        """The numerator over the pole multiset `poles`, which holds this one's."""
        num = self.num
        for p, m in poles.items():
            for _ in range(m - self.poles.get(p, 0)):
                num = _times_linear(num, p)
        return num

    def __add__(self, other):
        return RatFun.sum((self, other))

    def __neg__(self):
        return RatFun(poly_neg(self.num), self.poles)

    def __sub__(self, other):
        """self - other over the common pole multiset, with no negated copy."""
        if not other.num:
            return self
        if not self.num:
            return -other
        poles = _common_poles((self, other))
        return RatFun(poly_sub(self._lifted(poles), other._lifted(poles)), poles)

    def __mul__(self, other):
        if not isinstance(other, RatFun):
            # scalar or Mat multiplier on the right
            return RatFun(poly_scale(self.num, other), self.poles)
        if self.is_zero() or other.is_zero():
            return RatFun([], {})
        poles = dict(self.poles)
        for p, m in other.poles.items():
            poles[p] = poles.get(p, 0) + m
        return RatFun(poly_mul(self.num, other.num), poles)

    def kron(self, other):
        """num(u) (x) num'(u) over the sum of the two pole multisets."""
        if self.is_zero() or other.is_zero():
            return RatFun([], {})
        poles = dict(self.poles)
        for p, m in other.poles.items():
            poles[p] = poles.get(p, 0) + m
        a, b = self.num, other.num
        num = [None] * (len(a) + len(b) - 1)
        for i, ca in enumerate(a):
            for j, cb in enumerate(b):
                if ca and cb:
                    term = ca.kron(cb)
                    num[i + j] = term if num[i + j] is None else num[i + j] + term
        zero = Mat.zeros(a[0].nr * b[0].nr, a[0].nc * b[0].nc)
        return RatFun([zero if c is None else c for c in num], poles)

    def __eq__(self, other):
        return (self - other).is_zero()

    def __hash__(self):
        raise TypeError("RatFun is not hashable")

    def __repr__(self):
        ps = ", ".join(f"({p})^{m}" for p, m in self.poles.items())
        return f"RatFun(deg {self.num_degree()} / [{ps}])"

    # -- calculus

    def derivative(self):
        """Exact d/du; pole multiplicities grow by one where present.

        For f = N / prod_p (u - p)^(m_p), f' = (N' P - N R) / (P prod_p (u - p)^(m_p))
        with P = prod_p (u - p) and R = sum_p m_p prod_(q != p) (u - q), so
        numerator coefficient k is sum_j (j P[k-j+1] - R[k-j]) N_j: one
        `linear_combination` per coefficient, with no lift of N.
        """
        if self.is_zero():
            return self
        num = self.num
        nr, nc = num[0].nr, num[0].nc
        if not self.poles:
            return RatFun(
                [linear_combination([(k, num[k])], nr, nc) for k in range(1, len(num))], {}
            )
        roots = list(self.poles)
        p_coeffs = poly_from_roots(roots)
        r_coeffs = [QQI_ZERO] * len(roots)
        for p, m in self.poles.items():
            for k, c in enumerate(poly_from_roots([q for q in roots if q != p])):
                r_coeffs[k] = r_coeffs[k] + c * m
        out = []
        for k in range(len(num) + len(roots) - 1):
            terms = []
            for j in range(max(0, k - len(roots) + 1), min(k + 2, len(num))):
                w = -r_coeffs[k - j] if j <= k else QQI_ZERO
                if j:
                    w = w + p_coeffs[k - j + 1] * j
                terms.append((w, num[j]))
            out.append(linear_combination(terms, nr, nc))
        return RatFun(out, {p: m + 1 for p, m in self.poles.items()})

    def shift_arg(self, delta):
        """The function u -> f(u - delta)."""
        delta = QQi.of(delta)
        if self.is_zero() or not delta:
            return self
        num = poly_shift(self.num, -delta)
        poles = {p + delta: m for p, m in self.poles.items()}
        return RatFun(num, poles)

    def cancel(self):
        """The same function with every common (u - p) factor cancelled.

        The order of vanishing of num at a pole p is the number of leading
        zeros among the coefficients of num(t + p) in t; the rest, shifted
        back, is the quotient.  A pole whose order reaches zero is dropped.
        """
        num, poles = self.num, {}
        for p, m in self.poles.items():
            taylor = poly_shift(num, p)
            k = 0
            while k < m and not taylor[k]:
                k += 1
            if k:
                num = poly_shift(taylor[k:], -p)
            if m > k:
                poles[p] = m - k
        return RatFun(num, poles)

    def eval(self, u):
        u = QQi.of(u)
        if not self.num:
            return QQI_ZERO
        val = poly_eval(self.num, u)
        d = QQI_ONE
        for p, m in self.poles.items():
            base = u - p
            if not base:
                raise ZeroDivisionError(f"evaluation at pole {p}")
            d = d * base**m
        return val * d.inverse()

    def residue(self, pole, order=0):
        """res_{u=p} (u-p)^order * f(u) du, exact.

        Returns a Mat of the numerator's shape, zero at an absent pole, or
        QQI_ZERO for the zero function, which has no shape.  With m the
        order of p, it is the coefficient of t^(m - 1 - order) in the
        expansion of num / prod_{q != p} (u - q)^{m_q} at u = p + t: the
        sum over j of the Taylor coefficient j of num times the series
        coefficient m - 1 - order - j of 1 / prod_{q != p}.  Both are taken
        to order m - 1 (`_expansion`), and every order at p reads them.
        """
        if self.is_zero():
            return QQI_ZERO
        p = QQi.of(pole)
        nr, nc = self.num[0].nr, self.num[0].nc
        need = self.poles.get(p, 0) - order - 1
        if need < 0:
            return Mat.zeros(nr, nc)
        num_t, inv = self._expansion(p)
        return linear_combination(
            [(inv[need - j], num_t[j]) for j in range(min(need + 1, len(num_t)))], nr, nc
        )

    def _expansion(self, p):
        """(Taylor coefficients of num at p, series of 1 / prod_{q != p} (u - q)^{m_q}
        at p), both to order m_p - 1.  The expansion at the last pole asked
        for is kept on the function, so the orders at one pole share it."""
        kept = getattr(self, "_kept", None)
        if kept is None or kept[0] != p:
            m = self.poles[p]
            rest = [QQI_ONE]
            for q, mq in self.poles.items():
                if q != p:
                    for _ in range(mq):
                        rest = _times_linear(rest, q - p)
            kept = self._kept = (p, taylor_coefficients(self.num, p, m), series_inverse(rest, m - 1))
        return kept[1:]

    def infinity_value(self):
        """Limit at u -> infinity (zero if the function decays)."""
        nd, dd = self.num_degree(), self.denom_degree()
        if self.is_zero() or nd < dd:
            return QQI_ZERO
        if nd > dd:
            raise ValueError("function grows at infinity")
        lead = self.num[-1]
        return lead  # denominator is monic


def _common_poles(terms):
    """The least pole multiset that holds the poles of every RatFun in terms."""
    poles = {}
    for t in terms:
        for p, m in t.poles.items():
            if poles.get(p, 0) < m:
                poles[p] = m
    return poles


# ---------------------------------------------------------------------------
# Differential operator polynomials


class DiffOpPoly:
    """Normal-ordered sum_k b_k(u) d^k with RatFun coefficients.

    d o R = R o d + R' exactly.
    """

    __slots__ = ("coeffs",)

    def __init__(self, coeffs):
        coeffs = list(coeffs)
        while coeffs and coeffs[-1].is_zero():
            coeffs.pop()
        self.coeffs = coeffs

    def coeff(self, k):
        if k < len(self.coeffs):
            return self.coeffs[k]
        return RatFun([], {})

    def __add__(self, other):
        n = max(len(self.coeffs), len(other.coeffs))
        return DiffOpPoly([self.coeff(k) + other.coeff(k) for k in range(n)])

    def __neg__(self):
        return DiffOpPoly([-c for c in self.coeffs])

    def __sub__(self, other):
        n = max(len(self.coeffs), len(other.coeffs))
        return DiffOpPoly([self.coeff(k) - other.coeff(k) for k in range(n)])

    def __mul__(self, other):
        """(b0 + b1 d) o sum_k g_k d^k = sum_k (b0 g_k + b1 (g_k' + g_(k-1))) d^k.

        Only a first-order left factor is supported: a column determinant
        expanded from the left never multiplies by anything else.  A
        non-operator `other` multiplies every coefficient on the right.
        """
        if not isinstance(other, DiffOpPoly):
            return DiffOpPoly([c * other for c in self.coeffs])
        if len(self.coeffs) > 2:
            raise ValueError(f"left factor of order {len(self.coeffs) - 1}, not b0 + b1 d")
        b0, b1 = self.coeff(0), self.coeff(1)
        if b1.is_zero():
            return DiffOpPoly([b0 * g for g in other.coeffs])
        zero = RatFun([], {})
        pairs = zip(other.coeffs + [zero], [zero] + other.coeffs)
        if _is_minus_identity(b1):
            # the -1 of -d_u: subtract b1's partner, with no negated copy
            return DiffOpPoly([b0 * g - RatFun.sum([g.derivative(), below]) for g, below in pairs])
        return DiffOpPoly([
            RatFun.sum([b0 * g, b1 * RatFun.sum([g.derivative(), below])]) for g, below in pairs
        ])

    def __eq__(self, other):
        return (self - other).is_zero()

    def is_zero(self):
        return all(c.is_zero() for c in self.coeffs)


def column_minors(grid):
    """{rows: column determinant of `grid` on `rows`} over every m-set of rows.

    `grid` is n x m with m <= n, its entries from any noncommutative ring
    with +, - and * (DiffOpPoly, RatFun, Mat, QQi); products are taken left
    to right in column order.  The sweep expands along the first column:
    with D_j(S) the column determinant of columns j..m-1 on the row set S,
    D_j(S) = sum over r in S of (-1)^{#{s in S: s < r}} M_{r,j} D_{j+1}(S - r),
    every entry multiplying from the left, and D_{m-1}, D_{m-2}, ... are
    kept per row set, so one pass gives the minors of every m-set of rows
    and an n x n grid takes fewer than n 2^(n-1) products, not n! (n - 1).
    """
    n, m = len(grid), len(grid[0])
    minors = {(r,): grid[r][m - 1] for r in range(n)}
    for j in range(m - 2, -1, -1):
        wider = {}
        for rows in combinations(range(n), m - j):
            total = grid[rows[0]][j] * minors[rows[1:]]
            for pos in range(1, len(rows)):
                term = grid[rows[pos]][j] * minors[rows[:pos] + rows[pos + 1 :]]
                total = total - term if pos % 2 else total + term
            wider[rows] = total
        minors = wider
    return minors


def cdet(entries):
    """Column determinant sum_s sgn(s) M_{s(1)1} ... M_{s(n)n} of a square grid."""
    return column_minors(entries)[tuple(range(len(entries)))]
