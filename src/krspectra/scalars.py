"""Exact arithmetic foundation.

Gaussian rationals, dense exact matrices, univariate rational functions with
factored pole multisets, and the normal-ordered algebras of differential and
shift operators used for column determinants.

Everything here is immutable after construction and uses no floating point.
Denominators of rational functions are never stored as unfactored polynomials:
a pole multiset is part of the data, so no factorization is ever needed.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import permutations
from math import comb, lcm


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


class QQi:
    """A Gaussian rational a + b*i with exact Fraction parts.

    Canonical form is inherited from Fraction (reduced, positive
    denominator), so equality and hashing are exact.
    """

    __slots__ = ("re", "im")

    def __init__(self, re=0, im=0):
        # coerces user input; arithmetic builds its results with _qqi instead
        im = _frac(im)
        object.__setattr__(self, "re", _frac(re))
        object.__setattr__(self, "im", im if im._numerator else _ZERO_F)

    def __setattr__(self, *a):
        raise AttributeError("QQi is immutable")

    # -- coercion

    @staticmethod
    def of(x) -> "QQi":
        if isinstance(x, QQi):
            return x
        return QQi(x)

    # -- ring/field operations

    # A zero operand short-cuts +, - and *: the other operand (or zero) is
    # returned as it is, and no Fraction is built.  Most entries of the
    # package's matrices are zero, so this is the common case.  Likewise a
    # result of real operands gets the shared zero imaginary part, with no
    # Fraction arithmetic on the imaginary parts.

    def __add__(self, other):
        other = QQi.of(other)
        if not other:
            return self
        if not self:
            return other
        if self.im._numerator or other.im._numerator:
            return _qqi(self.re + other.re, self.im + other.im)
        return _qqi(self.re + other.re)

    __radd__ = __add__

    def __neg__(self):
        if not self:
            return self
        if self.im._numerator:
            return _qqi(-self.re, -self.im)
        return _qqi(-self.re)

    def __sub__(self, other):
        other = QQi.of(other)
        if not other:
            return self
        if not self:
            return -other
        if self.im._numerator or other.im._numerator:
            return _qqi(self.re - other.re, self.im - other.im)
        return _qqi(self.re - other.re)

    def __rsub__(self, other):
        return QQi.of(other) - self

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            if not self or not other:
                return QQI_ZERO
            if self.im._numerator:
                return _qqi(self.re * other, self.im * other)
            return _qqi(self.re * other)
        if not isinstance(other, QQi):
            return NotImplemented
        if not self or not other:
            return QQI_ZERO
        if not self.im._numerator and not other.im._numerator:
            return _qqi(self.re * other.re)
        return _qqi(
            self.re * other.re - self.im * other.im,
            self.re * other.im + self.im * other.re,
        )

    __rmul__ = __mul__

    def inverse(self) -> "QQi":
        n = self.re * self.re + self.im * self.im
        if not n:
            raise ZeroDivisionError("inverse of zero Gaussian rational")
        return _qqi(self.re / n, -self.im / n)

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

    def conjugate(self) -> "QQi":
        if not self.im._numerator:
            return self
        return _qqi(self.re, -self.im)

    def abs2(self) -> Fraction:
        return self.re * self.re + self.im * self.im

    # -- predicates

    def __bool__(self):
        # read the numerators directly: Fraction.__bool__ is a Python-level
        # call, and this test now guards every arithmetic operation
        return self.re._numerator != 0 or self.im._numerator != 0

    def __eq__(self, other):
        if isinstance(other, (int, Fraction)):
            return self.im == 0 and self.re == other
        if not isinstance(other, QQi):
            return NotImplemented
        return self.re == other.re and self.im == other.im

    def __hash__(self):
        if not self.im:
            return hash(self.re)
        return hash((self.re, self.im))

    def __complex__(self):
        return complex(self.re) + 1j * complex(self.im)

    # -- text form: "a/b", "c/d*i", "a/b+c/d*i", "a/b-c/d*i"

    def __str__(self):
        if not self.im:
            return str(self.re)
        ipart = "i" if abs(self.im) == 1 else f"{abs(self.im)}*i"
        sign = "-" if self.im < 0 else "+"
        if not self.re:
            return ipart if self.im > 0 else "-" + ipart
        return f"{self.re}{sign}{ipart}"

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
_set_re = QQi.re.__set__
_set_im = QQi.im.__set__


def _qqi(re: Fraction, im: Fraction = _ZERO_F) -> QQi:
    """A QQi from Fraction parts taken as they are: how arithmetic builds results.

    Skips the coercion of QQi(); a zero imaginary part may be any zero
    Fraction, and the default is one shared zero.
    """
    q = _new_object(QQi)
    _set_re(q, re)
    _set_im(q, im)
    return q


QQI_ZERO = QQi(0)
QQI_ONE = QQi(1)
QQI_I = QQi(0, 1)


def unit_circle_point(t) -> QQi:
    """Exact unit-modulus Gaussian rational at angle 2*atan(t), t rational.

    Pythagorean parametrization ((1-t^2) + 2t i)/(1+t^2); avoids exp entirely.
    """
    t = _frac(t)
    d = 1 + t * t
    return _qqi((1 - t * t) / d, 2 * t / d)


# ---------------------------------------------------------------------------
# Dense exact matrices


class Mat:
    """Dense matrix over QQi. Rows are lists; treat instances as immutable.

    Entrywise operations pass zero entries through without QQi arithmetic;
    every result has freshly built rows, which may share (immutable) entries
    with the operands.  Matrix products and `commutes` run on the integer
    view (`int_view`).
    """

    __slots__ = ("rows", "nr", "nc")

    def __init__(self, rows):
        self.rows = rows
        self.nr = len(rows)
        self.nc = len(rows[0]) if rows else 0

    @staticmethod
    def from_values(rows):
        return Mat([[QQi.of(x) for x in r] for r in rows])

    @staticmethod
    def zeros(nr, nc=None):
        nc = nr if nc is None else nc
        return Mat([[QQI_ZERO] * nc for _ in range(nr)])

    @staticmethod
    def identity(n):
        return Mat(
            [[QQI_ONE if i == j else QQI_ZERO for j in range(n)] for i in range(n)]
        )

    @staticmethod
    def unit(nr, nc, i, j, value=QQI_ONE):
        rows = [[QQI_ZERO] * nc for _ in range(nr)]
        rows[i][j] = QQi.of(value)
        return Mat(rows)

    def __getitem__(self, ij):
        i, j = ij
        return self.rows[i][j]

    def __add__(self, other):
        if not isinstance(other, Mat):
            return NotImplemented
        return Mat(
            [
                [(a + b if b else a) if a else b for a, b in zip(ra, rb)]
                for ra, rb in zip(self.rows, other.rows)
            ]
        )

    def __sub__(self, other):
        if not isinstance(other, Mat):
            return NotImplemented
        return Mat(
            [
                [(a - b if b else a) if a else -b for a, b in zip(ra, rb)]
                for ra, rb in zip(self.rows, other.rows)
            ]
        )

    def __neg__(self):
        return Mat([[-a if a else a for a in r] for r in self.rows])

    def __mul__(self, other):
        if isinstance(other, Mat):
            if self.nc != other.nr:
                raise ValueError(f"dimension mismatch {self.nc} vs {other.nr}")
            return _int_product(int_view(self), int_view(other), other.nc)
        s = QQi.of(other)
        if not s:
            return Mat.zeros(self.nr, self.nc)
        return Mat([[a * s if a else a for a in r] for r in self.rows])

    def __rmul__(self, other):
        # only a scalar reaches here, and scalars commute with matrices
        return self * other

    def __eq__(self, other):
        if not isinstance(other, Mat):
            return NotImplemented
        return self.nr == other.nr and self.nc == other.nc and all(
            a == b for ra, rb in zip(self.rows, other.rows) for a, b in zip(ra, rb)
        )

    def __hash__(self):
        return hash(tuple(tuple((x.re, x.im) for x in r) for r in self.rows))

    def __bool__(self):
        return any(any(x for x in r) for r in self.rows)

    def __repr__(self):
        return f"Mat({self.nr}x{self.nc})"

    def transpose(self):
        return Mat([list(col) for col in zip(*self.rows)])

    def conj(self):
        return Mat([[a.conjugate() for a in r] for r in self.rows])

    def conj_transpose(self):
        return self.conj().transpose()

    def trace(self):
        return sum((self.rows[i][i] for i in range(self.nr)), QQI_ZERO)

    def commutator(self, other):
        return self * other - other * self

    def commutes(self, other) -> bool:
        """Whether self * other == other * self, exactly; builds neither product."""
        if not (self.nr == self.nc == other.nr == other.nc):
            raise ValueError(
                f"commutes needs square matrices of one size, not {self!r} and {other!r}"
            )
        return views_commute(int_view(self), int_view(other))

    def kron(self, other):
        zero_block = [QQI_ZERO] * other.nc
        out = []
        for ra in self.rows:
            for rb in other.rows:
                row = []
                for a in ra:
                    row.extend([a * b if b else b for b in rb] if a else zero_block)
                out.append(row)
        return Mat(out)

    def max_abs(self) -> float:
        return max(
            (float(x.abs2()) for r in self.rows for x in r), default=0.0
        ) ** 0.5

    def scalar_part(self):
        """If the matrix is an exact scalar multiple of the identity, return it."""
        s = self.rows[0][0]
        for i in range(self.nr):
            for j in range(self.nc):
                want = s if i == j else QQI_ZERO
                if self.rows[i][j] != want:
                    return None
        return s


# The integer view: a matrix over QQi as D * m = N with N over the Gaussian
# integers, so products and commutators run on Python ints.  AB and BA share
# the denominator D_A * D_B, so comparing their numerators is an exact test.


def int_view(m: Mat):
    """(D, rows) for m: D > 0 a common denominator of the entries, and rows[i]
    the sparse list of (j, re, im) with re + im*i = D * m[i, j] != 0."""
    entries = []
    dens = {1}
    for r in m.rows:
        row = []
        for j, x in enumerate(r):
            re, im = x.re, x.im
            if im._numerator:
                dens.add(im._denominator)
            elif not re._numerator:
                continue
            dens.add(re._denominator)
            row.append((j, re, im))
        entries.append(row)
    d = lcm(*dens)
    scale = {q: d // q for q in dens}
    rows = [
        [
            (j, re._numerator * scale[re._denominator],
             im._numerator * scale[im._denominator])
            for j, re, im in row
        ]
        for row in entries
    ]
    return d, rows


def _row_numerators(arow, brows, nc):
    """Numerators (re list, im list) of (row arow) * B over D_A * D_B."""
    acc = [0] * nc
    acc_im = [0] * nc
    for k, ar, ai in arow:
        for j, br, bi in brows[k]:
            acc[j] += ar * br - ai * bi
            acc_im[j] += ar * bi + ai * br
    return acc, acc_im


def _int_product(va, vb, nc) -> Mat:
    """A * B from the integer views of A and B; B has nc columns."""
    da, arows = va
    db, brows = vb
    d = da * db
    out = []
    for arow in arows:
        re, im = _row_numerators(arow, brows, nc)
        out.append([
            (_qqi(Fraction(x, d) if x else _ZERO_F, Fraction(y, d) if y else _ZERO_F)
             if x or y else QQI_ZERO)
            for x, y in zip(re, im)
        ])
    return Mat(out)


def views_commute(va, vb) -> bool:
    """Whether the square matrices with integer views va and vb commute.

    Compares the numerators of AB and BA row by row and stops at the first
    row that differs; no Fraction is built.
    """
    arows, brows = va[1], vb[1]
    n = len(arows)
    for i in range(n):
        if _row_numerators(arows[i], brows, n) != _row_numerators(brows[i], arows, n):
            return False
    return True


def gauss_jordan(rows, width=None):
    """Exact Gauss-Jordan elimination: the package's one dense elimination.

    Reduces a list of QQi rows in place to reduced row echelon form, with
    pivots sought in the first `width` columns (all columns by default), so
    an augmented [M | I] ends as [R | E] with E M = R.  Returns the pivot
    values met, in order, and the sign of the row swaps: the rank is the
    number of pivots, and a square M of full rank has determinant
    sign * (product of pivots).
    """
    if width is None:
        width = len(rows[0]) if rows else 0
    pivots = []
    sign = 1
    rank = 0
    pc = 0
    while rank < len(rows) and pc < width:
        piv = next((r for r in range(rank, len(rows)) if rows[r][pc]), None)
        if piv is None:
            pc += 1
            continue
        if piv != rank:
            rows[rank], rows[piv] = rows[piv], rows[rank]
            sign = -sign
        pivots.append(rows[rank][pc])
        inv = rows[rank][pc].inverse()
        rows[rank] = [x * inv for x in rows[rank]]
        for r in range(len(rows)):
            if r != rank and rows[r][pc]:
                c = rows[r][pc]
                rows[r] = [x - c * y for x, y in zip(rows[r], rows[rank])]
        rank += 1
        pc += 1
    return pivots, sign


def mat_rank(mat_rows) -> int:
    """Exact rank of a list of QQi row vectors."""
    return len(gauss_jordan([list(r) for r in mat_rows])[0])


def mat_inverse(m: Mat) -> Mat:
    """Exact inverse of a square matrix; ZeroDivisionError if singular."""
    n = m.nr
    aug = [list(row) + ident for row, ident in zip(m.rows, Mat.identity(n).rows)]
    if len(gauss_jordan(aug, n)[0]) < n:
        raise ZeroDivisionError("inverse of a singular matrix")
    return Mat([row[n:] for row in aug])


def determinant(m: Mat) -> QQi:
    """Exact determinant of a square matrix."""
    pivots, sign = gauss_jordan([list(r) for r in m.rows])
    if len(pivots) < m.nr:
        return QQI_ZERO
    det = QQi(sign)
    for p in pivots:
        det = det * p
    return det


def span_rank(mats) -> int:
    """Rank of the linear span of a list of equally sized matrices."""
    vecs = [[x for row in m.rows for x in row] for m in mats]
    return len(gauss_jordan(vecs)[0])


def spans_equal(mats_a, mats_b) -> bool:
    """Exact equality of the linear spans of two matrix lists."""
    ra = span_rank(mats_a)
    rb = span_rank(mats_b)
    if ra != rb:
        return False
    return span_rank(list(mats_a) + list(mats_b)) == ra


# ---------------------------------------------------------------------------
# Polynomials (ascending coefficient lists over QQi or Mat)


def _zero_like(c):
    if isinstance(c, Mat):
        return Mat.zeros(c.nr, c.nc)
    return QQI_ZERO


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


def poly_neg(a):
    return [-c for c in a]

def poly_scale(a, s):
    return poly_trim([c * s for c in a])


def poly_mul(a, b):
    """Product of two coefficient lists; either may be scalar- or Mat-valued.

    When both are Mat-valued the factors multiply in the given order.
    """
    if not a or not b:
        return []
    za = _zero_like(a[0])
    zb = _zero_like(b[0])
    zero = za * zb if isinstance(za, Mat) or isinstance(zb, Mat) else QQI_ZERO
    out = [zero] * (len(a) + len(b) - 1)
    for i, ca in enumerate(a):
        if not ca:
            continue
        for j, cb in enumerate(b):
            if cb:
                out[i + j] = out[i + j] + ca * cb
    return poly_trim(out)


def poly_eval(a, u):
    if not a:
        return QQI_ZERO
    acc = a[-1]
    for c in reversed(a[:-1]):
        acc = acc * u + c
    return acc


def _vanishes_at(a, p):
    """Whether the polynomial a is zero at p.

    A Mat-valued one is tested entry by entry, skipping identically zero
    entries and stopping at the first entry whose value is nonzero, instead
    of evaluating the whole matrix polynomial.
    """
    if not isinstance(a[0], Mat):
        return not poly_eval(a, p)
    for i in range(a[0].nr):
        for entry in zip(*[c.rows[i] for c in a]):
            if any(entry) and poly_eval(entry, p):
                return False
    return True


def poly_deriv(a):
    return poly_trim([a[k] * QQi(k) for k in range(1, len(a))])


def _divmod_linear(a, p):
    """Synthetic division a = (u - p) q + r: returns (q untrimmed, r = a(p))."""
    out = [None] * (len(a) - 1)
    carry = a[-1]
    for k in range(len(a) - 2, -1, -1):
        out[k] = carry
        carry = a[k] + carry * p
    return out, carry


def poly_divide_linear(a, p):
    """Divide the coefficient list a by (u - p); assumes remainder zero."""
    return poly_trim(_divmod_linear(a, p)[0])


def taylor_coefficients(a, p, count):
    """The first `count` coefficients of a(t + p) in t (fewer if a runs out).

    Repeated synthetic division by (u - p): O(count * deg) operations, so a
    residue pays only for the coefficients it reads.
    """
    out = []
    while a and len(out) < count:
        a, r = _divmod_linear(a, p)
        out.append(r)
    return out


def poly_shift(a, delta):
    """Coefficients of p(t + delta) in t, for p given by coefficients a in u."""
    return poly_trim(taylor_coefficients(a, delta, len(a)))


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
# Rational functions with factored pole multisets


class RatFun:
    """num(u) / prod_p (u - p)^{m_p} with an explicit pole multiset.

    Numerator coefficients are QQi scalars or Mat matrices (shared shape).
    Instances are normalized on construction: common (u - p) factors are
    cancelled and zero-multiplicity poles dropped.
    """

    __slots__ = ("num", "poles")

    def __init__(self, num, poles=None, normalize=True):
        num = poly_trim(list(num))
        poles = dict(poles or {})
        if normalize and num:
            for p in list(poles):
                while poles[p] > 0 and _vanishes_at(num, p):
                    num = poly_divide_linear(num, p)
                    poles[p] -= 1
                if poles[p] == 0:
                    del poles[p]
        if not num:
            poles = {}
        self.num = num
        self.poles = poles

    # -- constructors

    @staticmethod
    def const(c):
        c = QQi.of(c) if not isinstance(c, Mat) else c
        return RatFun([c] if c else [], {})

    @staticmethod
    def monomial(c, k):
        c = QQi.of(c) if not isinstance(c, Mat) else c
        return RatFun(([_zero_like(c)] * k) + [c], {})

    @staticmethod
    def pole_term(c, p, mult=1):
        """c / (u - p)^mult."""
        c = QQi.of(c) if not isinstance(c, Mat) else c
        return RatFun([c], {QQi.of(p): mult})

    # -- structure

    def is_zero(self):
        return not self.num

    def is_matrix(self):
        return bool(self.num) and isinstance(self.num[0], Mat)

    def num_degree(self):
        return len(self.num) - 1

    def denom_degree(self):
        return sum(self.poles.values())

    # -- arithmetic

    def __add__(self, other):
        if not isinstance(other, RatFun):
            other = RatFun.const(other)
        if self.is_zero():
            return other
        if other.is_zero():
            return self
        poles = dict(self.poles)
        for p, m in other.poles.items():
            poles[p] = max(poles.get(p, 0), m)
        na = self.num
        for p, m in poles.items():
            need = m - self.poles.get(p, 0)
            for _ in range(need):
                na = poly_mul(na, [-p, QQI_ONE])
        nb = other.num
        for p, m in poles.items():
            need = m - other.poles.get(p, 0)
            for _ in range(need):
                nb = poly_mul(nb, [-p, QQI_ONE])
        return RatFun(poly_add(na, nb), poles)

    __radd__ = __add__

    def __neg__(self):
        return RatFun(poly_neg(self.num), self.poles, normalize=False)

    def __sub__(self, other):
        if not isinstance(other, RatFun):
            other = RatFun.const(other)
        return self + (-other)

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

    def __rmul__(self, other):
        # left scalar/Mat multiplier
        return RatFun([other * c for c in self.num], self.poles)

    def __eq__(self, other):
        if not isinstance(other, RatFun):
            other = RatFun.const(other)
        return (self - other).is_zero()

    def __hash__(self):
        raise TypeError("RatFun is not hashable")

    def __repr__(self):
        ps = ", ".join(f"({p})^{m}" for p, m in self.poles.items())
        return f"RatFun(deg {self.num_degree()} / [{ps}])"

    # -- calculus

    def derivative(self):
        """Exact d/du; pole multiplicities grow by one where present."""
        if self.is_zero():
            return self
        dnum = poly_deriv(self.num)
        if not self.poles:
            return RatFun(dnum, {})
        plist = list(self.poles.items())
        radical = [QQI_ONE]
        for p, _ in plist:
            radical = poly_mul(radical, [-p, QQI_ONE])
        total = poly_mul(dnum, radical) if dnum else []
        for p, m in plist:
            partial = [QQi(-m)]
            for q, _ in plist:
                if q != p:
                    partial = poly_mul(partial, [-q, QQI_ONE])
            term = poly_mul(self.num, partial)
            total = poly_add(total, term) if total else term
        newpoles = {p: m + 1 for p, m in plist}
        return RatFun(total, newpoles)

    def shift_arg(self, delta):
        """The function u -> f(u - delta)."""
        delta = QQi.of(delta)
        if self.is_zero() or not delta:
            return self
        num = poly_shift(self.num, -delta)
        poles = {p + delta: m for p, m in self.poles.items()}
        return RatFun(num, poles, normalize=False)

    def eval(self, u):
        u = QQi.of(u)
        val = poly_eval(self.num, u) if self.num else QQI_ZERO
        if not self.num:
            return QQI_ZERO
        d = QQI_ONE
        for p, m in self.poles.items():
            base = u - p
            if not base:
                raise ZeroDivisionError(f"evaluation at pole {p}")
            d = d * base**m
        return val * d.inverse()

    def residue(self, pole, order=0):
        """res_{u=p} (u-p)^order * f(u) du, exact.

        Returns the numerator coefficient type (QQi or Mat); absent poles give 0.
        """
        p = QQi.of(pole)
        m = self.poles.get(p, 0)
        need = m - order - 1
        if need < 0 or self.is_zero():
            if self.is_matrix():
                z = self.num[0]
                return Mat.zeros(z.nr, z.nc)
            return QQI_ZERO
        # Taylor-expand num / prod_{q != p} (u-q)^{m_q} at p up to t^need.
        num_t = taylor_coefficients(self.num, p, need + 1)
        rest = [QQI_ONE]
        for q, mq in self.poles.items():
            if q == p:
                continue
            for _ in range(mq):
                rest = poly_mul(rest, [p - q, QQI_ONE])
        inv = series_inverse(rest, need)
        acc = None
        for j in range(need + 1):
            cj = num_t[j] if j < len(num_t) else None
            if cj is None or not cj:
                continue
            term = cj * inv[need - j]
            acc = term if acc is None else acc + term
        if acc is None:
            return Mat.zeros(self.num[0].nr, self.num[0].nc) if self.is_matrix() else QQI_ZERO
        return acc

    def infinity_value(self):
        """Limit at u -> infinity (zero if the function decays)."""
        nd, dd = self.num_degree(), self.denom_degree()
        if self.is_zero() or nd < dd:
            return QQI_ZERO
        if nd > dd:
            raise ValueError("function grows at infinity")
        lead = self.num[-1]
        return lead  # denominator is monic


# ---------------------------------------------------------------------------
# Differential and shift operator polynomials


class _OpPoly:
    """Normal-ordered sum_k c_k(u) X^k with RatFun coefficients.

    A subclass gives the rule for moving X^i past a coefficient (`_past`) and
    the action of X^0, X^1, ... on a function (`_powers_on`).
    """

    __slots__ = ("coeffs",)

    def __init__(self, coeffs):
        coeffs = list(coeffs)
        while coeffs and coeffs[-1].is_zero():
            coeffs.pop()
        self.coeffs = coeffs

    def _like(self, other):
        """The constructor of a result combining self and other."""
        return type(self)

    def coeff(self, k):
        if k < len(self.coeffs):
            return self.coeffs[k]
        return RatFun([], {})

    def __add__(self, other):
        n = max(len(self.coeffs), len(other.coeffs))
        return self._like(other)([self.coeff(k) + other.coeff(k) for k in range(n)])

    def __neg__(self):
        return self._like(self)([-c for c in self.coeffs])

    def __sub__(self, other):
        return self + (-other)

    def __mul__(self, other):
        if not isinstance(other, _OpPoly):
            return self._like(self)([c * other for c in self.coeffs])
        new = self._like(other)
        out = {}
        for i, a in enumerate(self.coeffs):
            if a.is_zero():
                continue
            for j, b in enumerate(other.coeffs):
                if b.is_zero():
                    continue
                for k, moved in self._past(i, b):
                    k += j
                    term = a * moved
                    out[k] = out[k] + term if k in out else term
        if not out:
            return new([])
        zero = RatFun([], {})
        return new([out.get(k, zero) for k in range(max(out) + 1)])

    def __eq__(self, other):
        return (self - other).is_zero()

    def is_zero(self):
        return all(c.is_zero() for c in self.coeffs)

    def apply(self, f: RatFun) -> RatFun:
        """Act on a RatFun (scalar- or vector-valued) without using __mul__."""
        out = RatFun([], {})
        for c, fk in zip(self.coeffs, self._powers_on(f)):
            if not c.is_zero():
                out = out + c * fk
        return out


class DiffOpPoly(_OpPoly):
    """Normal-ordered sum_k b_k(u) d^k; d o R = R o d + R' exactly."""

    __slots__ = ()

    @staticmethod
    def from_ratfun(f):
        return DiffOpPoly([f])

    @staticmethod
    def d(order=1, like=None):
        one = RatFun.const(like if like is not None else QQI_ONE)
        zero = RatFun([], {})
        return DiffOpPoly([zero] * order + [one])

    def _past(self, i, b):
        # d^i o b = sum_s C(i,s) b^{(s)} d^{i-s}
        for s in range(i + 1):
            c = comb(i, s)
            yield i - s, b if c == 1 else b * QQi(c)
            if s < i:
                b = b.derivative()

    def _powers_on(self, f):
        while True:
            yield f
            f = f.derivative()


class ShiftOpPoly(_OpPoly):
    """Normal-ordered sum_a R_a(u) S^a with S f(u) = f(u - step) S."""

    __slots__ = ("step",)

    def __init__(self, coeffs, step):
        super().__init__(coeffs)
        self.step = QQi.of(step)

    def _like(self, other):
        if self.coeffs and other.coeffs and self.step != other.step:
            raise ValueError("shift step mismatch")
        step = self.step if self.coeffs else other.step
        return lambda coeffs: ShiftOpPoly(coeffs, step)

    def _past(self, i, b):
        yield i, b.shift_arg(self.step * QQi(i))

    def _powers_on(self, f):
        k = 0
        while True:
            yield f.shift_arg(self.step * QQi(k))
            k += 1


def cdet(entries):
    """Column determinant sum_s sgn(s) M_{s(1)1} ... M_{s(n)n}.

    Entries come from any noncommutative ring with +, -, * (DiffOpPoly,
    ShiftOpPoly, RatFun, Mat); products are taken left to right in column
    order.
    """
    n = len(entries)
    total = None
    for sigma in permutations(range(n)):
        prod = entries[sigma[0]][0]
        for col in range(1, n):
            prod = prod * entries[sigma[col]][col]
        if sgn(sigma) < 0:
            prod = -prod
        total = prod if total is None else total + prod
    return total


def sgn(sigma) -> int:
    """Sign of a permutation of range(len(sigma)), from its cycle lengths."""
    sign = 1
    seen = [False] * len(sigma)
    for i in range(len(sigma)):
        if seen[i]:
            continue
        j = i
        clen = 0
        while not seen[j]:
            seen[j] = True
            j = sigma[j]
            clen += 1
        if clen % 2 == 0:
            sign = -sign
    return sign
