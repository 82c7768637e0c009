"""Exact scalar arithmetic in Q(zeta_24) and exact dense/sparse linear algebra.

The scalar type ``CycloNum`` is an element of Q[x]/(x^8 - x^4 + 1), i.e. the
cyclotomic field generated by a primitive 24th root of unity ``zeta``.  This
is the smallest cyclotomic field containing the imaginary unit (zeta^6), a
primitive cube root of unity (zeta^8), sqrt(2) and sqrt(3) -- every scalar
the rest of the package ever needs.  Coordinates in the power basis
1, zeta, ..., zeta^7 are stored as eight integer numerators over one positive
common denominator, reduced so that the gcd of the denominator and all
numerators is 1 (FLINT's ``nf_elem`` layout).  That form is unique, so
equality of field elements is equality of (denominator, numerators), and each
operation reduces its result by one gcd instead of one per coordinate.

Ints and ``Fraction``s become field elements only where objects are built:
``CycloNum.rational``, ``CycloNum(coeffs)``, and ``as_cyclo`` in the
constructors of matrices, blade maps and octonions.  The operators and the
kernels take ``CycloNum``s only: any other operand of +, -, * or / is a
TypeError, and a ``CycloNum`` equals nothing but a ``CycloNum``.

The sums of products in the hot kernels -- matrix products, ``vec_dot``,
the Clifford and Zorn products, the spinor action -- go
through one kernel, ``_dot``, which puts all the products over one common
denominator, convolves them into one integer polynomial, folds that mod
Phi_24 once and reduces by one gcd (the delayed reduction of FLINT's
``nf_elem`` dot products); a sum whose polynomial is a constant, such as
any sum of rational products, skips the fold and is one integer over the
common denominator.  The numerators
it reduces are exactly those of the sum, so its result is the same canonical
form a term-by-term sum reaches.  At import ``_check_constants`` checks the field's own product and
``_dot`` against ``zeta`` and the named constants against their minimal
polynomials, and ``_check_galois`` checks the Galois tables of ``inv``.

``ExactMatrix`` is a dense matrix over CycloNum with exact rank / kernel /
solve / inverse / det built on one sparse-row Gaussian elimination engine:
``rref`` clears each incoming row of the pivots of the basis so far in one
reduction pass, ``_reduce``.  Every kernel, solve,
inverse and determinant, and every rank not certified mod P (below), runs
that one elimination loop, and ``null_space`` reads kernels off it.  A row
update, entry - f * v, is reduced once, like ``_dot``, not once for the
product and once for the sum.  Sparse maps that are updated one term at a
time accumulate through ``add_term``.

``row_rank`` first counts the rank with zeta sent to a root R of Phi_24 mod
the prime P = 15 * 2^27 + 1, a ring map on entries whose denominators P does
not divide (``_check_reduction`` checks R at import).  Each minor maps to the
minor of the images, so the rank mod P is at most the rank (Cohen, "A Course
in Computational Algebraic Number Theory", 1993, on split primes).  Only a
full rank mod P, min(rows, cols), is taken as proof; a smaller one, or a
denominator P divides, falls back to the exact ``rref``.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import compress
from math import gcd, lcm, prod
from typing import Iterable, Sequence

DEGREE = 8


class FieldError(ValueError):
    """Raised for nonsensical field operations (division by zero, an angle
    outside Q(zeta_24), an irrational value read as a rational)."""


def _as_fraction(x) -> Fraction:
    if isinstance(x, Fraction):
        return x
    if isinstance(x, int):
        return Fraction(x)
    raise TypeError(f"cannot interpret {x!r} as an exact rational")


_POSITIONS = range(DEGREE)
_RATIONAL_NZ = (0,)  # the nonzero positions of a nonzero rational
_new = object.__new__


def _fold(prod: list[int]) -> tuple[int, ...]:
    """The numerators of a product polynomial of degree at most 14 reduced
    mod Phi_24 = x^8 - x^4 + 1: x^(k+8) = x^(k+4) - x^k, applied from the
    top degree down.  ``prod`` is used up."""
    for d in range(14, 7, -1):
        c = prod[d]
        if c:
            prod[d - 4] += c
            prod[d - 8] -= c
    return tuple(prod[:8])


def _from_ints(num: tuple[int, ...], den: int, nz: tuple[int, ...] | None = None) -> "CycloNum":
    """The CycloNum num / den for integer numerators and a positive den,
    divided through by gcd(den, *num) so the form is canonical.  A caller
    that knows which numerators are nonzero passes them as ``nz``."""
    if den != 1:
        g = gcd(den, *num)
        if g != 1:
            num = tuple([x // g for x in num])
            den //= g
    out = _new(CycloNum)
    out.num = num
    out.den = den
    out.nz = tuple(compress(_POSITIONS, num)) if nz is None else nz
    return out


class CycloNum:
    """An element of Q(zeta_24) in the power basis 1, zeta, ..., zeta^7.

    Stored as eight integer numerators ``num`` over one positive denominator
    ``den`` with gcd(den, *num) == 1 (zero is eight zeros over 1), so equal
    field elements have equal ``(den, num)``.  ``nz`` lists the positions of
    the nonzero numerators; ``coeffs`` gives the coordinates as ``Fraction``s.
    """

    __slots__ = ("num", "den", "nz")

    def __init__(self, coeffs: Iterable[Fraction | int]):
        t = tuple(map(_as_fraction, coeffs))
        if len(t) != DEGREE:
            raise ValueError(f"need {DEGREE} coefficients, got {len(t)}")
        # over the lcm of reduced denominators the gcd with den is already 1
        den = lcm(*[f.denominator for f in t])
        self.num = tuple([f.numerator * (den // f.denominator) for f in t])
        self.den = den
        self.nz = tuple(compress(_POSITIONS, self.num))

    @property
    def coeffs(self) -> tuple[Fraction, ...]:
        den = self.den
        return tuple([Fraction(n, den) for n in self.num])

    # -- constructors -------------------------------------------------------

    @classmethod
    def rational(cls, x) -> "CycloNum":
        f = _as_fraction(x)
        return _from_ints((f.numerator,) + (0,) * (DEGREE - 1), f.denominator)

    @classmethod
    def zeta(cls, k: int) -> "CycloNum":
        """zeta^k reduced mod x^8 - x^4 + 1 (zeta^12 = -1)."""
        k %= 24
        sign = 1
        if k >= 12:
            k -= 12
            sign = -1
        c = [0] * DEGREE
        if k < 8:
            c[k] = sign
        else:  # 8 <= k <= 11: zeta^k = zeta^(k-4) - zeta^(k-8)
            c[k - 4] = sign
            c[k - 8] = -sign
        return _from_ints(tuple(c), 1)

    # -- predicates ---------------------------------------------------------

    def __bool__(self) -> bool:
        return bool(self.nz)

    def is_rational(self) -> bool:
        return self.nz == () or self.nz == (0,)

    def rational_value(self) -> Fraction:
        if not self.is_rational():
            raise FieldError(f"{self!r} is not rational")
        return Fraction(self.num[0], self.den)

    # -- arithmetic ---------------------------------------------------------

    def __add__(self, o):
        if type(o) is not CycloNum:
            return NotImplemented
        if not o.nz:
            return self
        if not self.nz:
            return o
        da, db = self.den, o.den
        if da == db:
            return _from_ints(tuple([x + y for x, y in zip(self.num, o.num)]), da)
        return _from_ints(tuple([x * db + y * da for x, y in zip(self.num, o.num)]), da * db)

    def __sub__(self, o):
        if type(o) is not CycloNum:
            return NotImplemented
        if not o.nz:
            return self
        if not self.nz:
            return -o
        da, db = self.den, o.den
        if da == db:
            return _from_ints(tuple([x - y for x, y in zip(self.num, o.num)]), da)
        return _from_ints(tuple([x * db - y * da for x, y in zip(self.num, o.num)]), da * db)

    def __neg__(self):
        # negation keeps gcd(den, *num) == 1, so there is nothing to reduce
        if not self.nz:
            return self
        out = _new(CycloNum)
        out.num = tuple([-x for x in self.num])
        out.den = self.den
        out.nz = self.nz
        return out

    def __mul__(self, o):
        if type(o) is not CycloNum:
            return NotImplemented
        anz, bnz = self.nz, o.nz
        if not anz or not bnz:
            return ZERO
        a, b = self.num, o.num
        den = self.den * o.den
        if anz == (0,):
            a0 = a[0]
            if a0 == 1 and self.den == 1:
                return o
            return _from_ints(tuple([a0 * x for x in b]), den, bnz)
        if bnz == (0,):
            b0 = b[0]
            if b0 == 1 and o.den == 1:
                return self
            return _from_ints(tuple([b0 * x for x in a]), den, anz)
        prod = [0] * 15
        for i in anz:
            ai = a[i]
            for j in bnz:
                prod[i + j] += ai * b[j]
        return _from_ints(_fold(prod), den)

    # perfbench/spans.py patches __rmul__ alongside __mul__ when tracing, so it stays
    __rmul__ = __mul__

    def inv(self) -> "CycloNum":
        """x^-1 = r / N(x): the maps sigma_k: zeta -> zeta^k, k = 5, 7, 13,
        generate the Galois group, and y <- y sigma_k(y), r <- r sigma_k(y)
        keep x r = y, so y ends as the rational field norm N(x)."""
        if not self:
            raise FieldError("division by zero in Q(zeta_24)")
        y, r = self, ONE
        for images in _GALOIS:
            if y.is_rational():
                break
            a = y.num
            c = [sum([a[i] * images[i][j] for i in y.nz]) for j in _POSITIONS]
            c = _from_ints(tuple(c), y.den)
            y, r = _mul(y, c), _mul(r, c)
        if not y.is_rational():
            raise ArithmeticError("the field norm came out irrational")
        return _mul(r, CycloNum.rational(Fraction(y.den, y.num[0])))

    def __truediv__(self, o):
        if type(o) is not CycloNum:
            return NotImplemented
        return self * o.inv()

    # -- equality / display -------------------------------------------------

    def __eq__(self, o):
        if type(o) is not CycloNum:
            return NotImplemented
        return self.den == o.den and self.num == o.num

    def __hash__(self):
        return hash((self.den, self.num))

    def __repr__(self):
        if self.is_rational():
            return f"CycloNum({self.rational_value()})"
        terms = [f"{c}*z^{k}" if k else str(c) for k, c in enumerate(self.coeffs) if c]
        return "CycloNum(" + " + ".join(terms) + ")"

    # -- serialization ------------------------------------------------------

    def to_strings(self) -> list[str]:
        """Each coordinate as a reduced "numerator/denominator" string."""
        den = self.den
        out = []
        for n in self.num:
            g = gcd(n, den)
            out.append(f"{n // g}/{den // g}")
        return out


def as_cyclo(x) -> CycloNum:
    """x itself if it is a CycloNum, else the rational number x as one."""
    return x if isinstance(x, CycloNum) else CycloNum.rational(x)


def _dot(pairs: Iterable[tuple[CycloNum, CycloNum]]) -> CycloNum:
    """sum(a * b for a, b in pairs), reduced once for the whole sum.

    Each product is put over den, the lcm of the a.den * b.den, and its
    convolution over the nonzero positions goes into one integer polynomial;
    that polynomial is folded mod Phi_24 once and divided through by one gcd.
    Its numerators over den are exactly those of the sum, so the result is
    the canonical form that ``ZERO + a*b + ...`` reaches (an empty or
    cancelling sum is zero over 1).  A single product is left to the field
    product, whose rational shortcuts it would otherwise miss.  When the
    polynomial is a constant, as it is for every all-rational pair list,
    there is nothing to fold: the sum is that one integer over den, reduced
    by one gcd."""
    live = [(a.den * b.den, a, b) for a, b in pairs if a.nz and b.nz]
    if len(live) < 2:
        return _mul(live[0][1], live[0][2]) if live else ZERO
    den = lcm(*[d for d, _, _ in live])
    acc = [0] * 15
    for d, a, b in live:
        s = den // d
        an, bn, bnz = a.num, b.num, b.nz
        for i in a.nz:
            ai = an[i] * s
            for j in bnz:
                acc[i + j] += ai * bn[j]
    if not any(acc[1:]):
        n = acc[0]
        return _from_ints((n, 0, 0, 0, 0, 0, 0, 0), den, _RATIONAL_NZ if n else ())
    return _from_ints(_fold(acc), den)


ZERO = CycloNum.rational(0)
ONE = CycloNum.rational(1)
TWO = CycloNum.rational(2)
HALF = CycloNum.rational(Fraction(1, 2))
I = CycloNum.zeta(6)
OMEGA = CycloNum.zeta(8)
SQRT2 = CycloNum.zeta(3) + CycloNum.zeta(-3)
SQRT3 = CycloNum.zeta(2) + CycloNum.zeta(-2)

# sigma_k as the numerators of zeta^(k i), i = 0..7; ``inv`` multiplies by the
# product bound here, so a wrapper put on ``CycloNum.__mul__`` never reaches it
_GALOIS = tuple(tuple(CycloNum.zeta(k * i).num for i in _POSITIONS) for k in (5, 7, 13))
_mul = CycloNum.__mul__

def _check_constants() -> None:
    """The product of k zetas must equal ``zeta(k)`` for k < 24.  Then
    zeta^12 = -1, so the product reduces modulo a monic degree-8 divisor of
    x^12 + 1 = Phi_8 Phi_24; both factors are irreducible and Phi_8 has
    degree 4, so that divisor is Phi_24 = x^8 - x^4 + 1.  ``_dot`` must
    agree at every step, on two products over different denominators, and
    cancel i*i + 2*(1/2) to zero over 1."""
    z, power = CycloNum.zeta(1), ONE
    for k in range(24):
        if CycloNum.zeta(k) != power:
            raise ArithmeticError(f"zeta^{k} and the product of {k} zetas differ")
        if _dot([(z, power), (power, -HALF * z)]) != CycloNum.zeta(k + 1) * HALF:
            raise ArithmeticError(f"the dot product zeta*zeta^{k} - zeta^{k}*zeta/2 "
                                  f"is not zeta^{k + 1}/2")
        power = power * z
    if _dot([(I, I), (TWO, HALF)]) != ZERO:
        raise ArithmeticError("the dot product i*i + 2*(1/2) does not cancel")
    if not (I * I == -ONE
            and OMEGA * OMEGA + OMEGA + ONE == ZERO
            and SQRT2 * SQRT2 == TWO
            and SQRT3 * SQRT3 == CycloNum.rational(3)
            and HALF + HALF == ONE):
        raise ArithmeticError("a named constant of Q(zeta_24) fails its minimal polynomial")


_check_constants()


def _check_galois() -> None:
    """Each ``_GALOIS`` table must send zeta to a root s of Phi_24 and list
    s^0..s^7, so that it is a field automorphism; and the three must
    generate the Galois group, else the norm ``inv`` reaches is irrational:
    (zeta + 2) times its inverse must come back to ONE."""
    for images in _GALOIS:
        s, powers = _from_ints(images[1], 1), [ONE]
        for _ in range(8):
            powers.append(powers[-1] * s)
        if powers[8] - powers[4] + ONE != ZERO:
            raise ArithmeticError(f"a Galois table sends zeta to {s}, not a root of Phi_24")
        if [(p.den, p.num) for p in powers[:8]] != [(1, row) for row in images]:
            raise ArithmeticError(f"a Galois table does not list the powers of {s}")
    x = CycloNum.zeta(1) + TWO
    if x * x.inv() != ONE:
        raise ArithmeticError("(zeta + 2) times its inverse is not 1")


_check_galois()

# the prime P = 15 * 2^27 + 1 and a root R = 22^((P - 1) / 24) of Phi_24 mod P
_P, _R = 2013265921, 1398021245
_R_POWERS = tuple(pow(_R, i, _P) for i in _POSITIONS)


def _check_reduction(p: int, r: int) -> None:
    """zeta -> r is a ring map Z[zeta] -> Z/p exactly when r is a root of
    Phi_24 = x^8 - x^4 + 1 mod p; then r^12 = -1, as zeta^12 = -1."""
    if (pow(r, 8, p) - pow(r, 4, p) + 1) % p or pow(r, 12, p) != p - 1:
        raise ArithmeticError(f"{r} is not a root of Phi_24 mod {p}")


_check_reduction(_P, _R)


def cos_sin_pi(multiple: Fraction) -> tuple[CycloNum, CycloNum]:
    """Exact (cos, sin) of ``multiple * pi``; the reduced denominator of the
    multiple must divide 12, else the value falls outside Q(zeta_24)."""
    multiple = _as_fraction(multiple)
    k = multiple * 12
    if k.denominator != 1:
        raise FieldError(f"cos/sin of {multiple}*pi is not in Q(zeta_24)")
    k = int(k)
    zp, zm = CycloNum.zeta(k), CycloNum.zeta(-k)
    cos = (zp + zm) * HALF
    sin = (zp - zm) * (-I * HALF)
    return cos, sin


# ---------------------------------------------------------------------------
# sparse-row Gaussian elimination engine
# ---------------------------------------------------------------------------

Row = dict  # {column index: CycloNum}


class EliminationError(ValueError):
    pass


def add_term(terms: dict, key, value) -> None:
    """terms[key] += value, storing no exact zero: a zero sum deletes the key,
    and a zero into a missing key stores nothing."""
    cur = terms.get(key)
    if cur is not None:
        value = cur + value
    if value:
        terms[key] = value
    elif cur is not None:
        del terms[key]


def _sub_mul(cur: CycloNum, f: CycloNum, v: CycloNum) -> CycloNum:
    """cur - f * v, reduced once: both terms over lcm(cur.den, f.den * v.den),
    one convolution, one fold mod Phi_24 and one gcd (the operators would
    reduce the product and then the difference)."""
    dp = f.den * v.den
    den = lcm(cur.den, dp)
    acc = [0] * 15
    t, cn = den // cur.den, cur.num
    for i in cur.nz:
        acc[i] = cn[i] * t
    s, fn, vn, vnz = den // dp, f.num, v.num, v.nz
    for i in f.nz:
        fi = fn[i] * s
        for j in vnz:
            acc[i + j] -= fi * vn[j]
    return _from_ints(_fold(acc), den)


def _row_sub_scaled(row: Row, factor: CycloNum, other: Row) -> None:
    """row -= factor * other for a nonzero factor.  An entry row already has
    becomes ``_sub_mul(cur, factor, v)``, reduced once, and is deleted if that
    is exactly zero, as ``add_term`` does; a missing one becomes -factor * v."""
    neg = -factor
    for c, v in other.items():
        cur = row.get(c)
        if cur is None:
            row[c] = neg * v
        else:
            cur = _sub_mul(cur, factor, v)
            if cur.nz:
                row[c] = cur
            else:
                del row[c]


def _reduce(row: Row, basis: dict[int, Row]) -> Row:
    """Clear every pivot column of a fully reduced basis from row, in place.

    Each basis row is zero at the other pivots, so clearing one pivot never
    changes the row at another: one pass over the pivots the row starts with
    leaves the row minus its component in the span."""
    for p in [c for c in row if c in basis]:
        _row_sub_scaled(row, row[p], basis[p])
    return row


def sparse_row(coords: Iterable[CycloNum]) -> Row:
    """The nonzero coordinates of a vector as a sparse row."""
    return {i: c for i, c in enumerate(coords) if c}


def _rref(rows: Iterable[Row]) -> tuple[dict[int, Row], list[CycloNum]]:
    """The ``rref`` basis, keyed by pivot column in the order the pivots
    arrive, and in that order the entry each new row was divided by."""
    basis: dict[int, Row] = {}
    leads = []
    for incoming in rows:
        row = _reduce(dict(incoming), basis)
        if not row:
            continue
        p = min(row)
        lead = row[p]
        lead_inv = lead.inv()
        row = {c: v * lead_inv for c, v in row.items()}
        for prior in basis.values():
            f = prior.get(p)
            if f is not None:
                _row_sub_scaled(prior, f, row)
        basis[p] = row
        leads.append(lead)
    return basis, leads


def rref(rows: Iterable[Row]) -> dict[int, Row]:
    """Reduced row echelon basis of the row span, keyed by pivot column.

    Rows are folded in one at a time: each incoming row is cleared of every
    existing pivot column by ``_reduce``, then normalized to leading
    coefficient 1 on its first surviving column, which is eliminated from all
    prior rows.  The basis therefore stays fully reduced throughout.  Exact
    arithmetic; pivoting is always on the first nonzero entry.
    """
    return _rref(rows)[0]


def _rank_mod_p(rows: Iterable[Row]) -> int | None:
    """The rank of the rows with zeta sent to ``_R`` mod ``_P``, or None if
    ``_P`` divides a denominator: each row is cleared of the pivots of an
    echelon basis with leads 1, first column first."""
    basis: dict[int, dict[int, int]] = {}
    for incoming in rows:
        if any(v.den % _P == 0 for v in incoming.values()):
            return None
        row = {c: x for c, v in incoming.items()
               if (x := sum([v.num[i] * _R_POWERS[i] for i in v.nz]) * pow(v.den, -1, _P) % _P)}
        while row and (p := min(row)) in basis:
            f = row[p]
            for c, y in basis[p].items():
                row[c] = (row.get(c, 0) - f * y) % _P
            row = {c: x for c, x in row.items() if x}
        if row:
            lead_inv = pow(row[p], -1, _P)
            basis[p] = {c: x * lead_inv % _P for c, x in row.items()}
    return len(basis)


def row_rank(rows: Sequence[Row], ncols: int) -> int:
    """The rank of sparse rows over Q(zeta_24): the rank mod ``_P`` when that
    is full, min(len(rows), ncols), else ``len(rref(rows))``."""
    full = min(len(rows), ncols)
    return full if _rank_mod_p(rows) == full else len(rref(rows))


def null_space(basis: dict[int, Row], ncols: int) -> list[tuple[CycloNum, ...]]:
    """Basis of {v : R v = 0} for the rows R of an ``rref`` basis, as
    coordinate tuples: one vector per free column."""
    free = [c for c in range(ncols) if c not in basis]
    out = []
    for f in free:
        vec = [ZERO] * ncols
        vec[f] = ONE
        for p, row in basis.items():
            coeff = row.get(f)
            if coeff is not None:
                vec[p] = -coeff
        out.append(tuple(vec))
    return out


# ---------------------------------------------------------------------------
# dense exact matrices
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ExactMatrix:
    rows: int
    cols: int
    entries: tuple[CycloNum, ...]  # row-major

    def __post_init__(self):
        if len(self.entries) != self.rows * self.cols:
            raise ValueError("entry count does not match the declared shape")

    # -- constructors -------------------------------------------------------

    @classmethod
    def from_rows(cls, data: Sequence[Sequence]) -> "ExactMatrix":
        r = len(data)
        c = len(data[0]) if r else 0
        flat = []
        for row in data:
            if len(row) != c:
                raise ValueError("ragged rows")
            flat.extend(as_cyclo(x) for x in row)
        return cls(r, c, tuple(flat))

    @classmethod
    def identity(cls, n: int) -> "ExactMatrix":
        return cls(n, n, tuple(ONE if i == j else ZERO for i in range(n) for j in range(n)))

    @classmethod
    def zero(cls, r: int, c: int) -> "ExactMatrix":
        return cls(r, c, (ZERO,) * (r * c))

    @classmethod
    def diagonal(cls, diag: Sequence) -> "ExactMatrix":
        n = len(diag)
        d = [as_cyclo(x) for x in diag]
        return cls(n, n, tuple(d[i] if i == j else ZERO for i in range(n) for j in range(n)))

    @classmethod
    def from_columns(cls, columns: Sequence[Sequence]) -> "ExactMatrix":
        c = len(columns)
        r = len(columns[0]) if c else 0
        return cls(r, c, tuple(as_cyclo(columns[j][i]) for i in range(r) for j in range(c)))

    # -- access -------------------------------------------------------------

    def get(self, i: int, j: int) -> CycloNum:
        return self.entries[i * self.cols + j]

    def row(self, i: int) -> tuple[CycloNum, ...]:
        return self.entries[i * self.cols:(i + 1) * self.cols]

    def column(self, j: int) -> tuple[CycloNum, ...]:
        return tuple(self.entries[i * self.cols + j] for i in range(self.rows))

    def sparse_rows(self) -> list[Row]:
        return [sparse_row(self.row(i)) for i in range(self.rows)]

    # -- algebra ------------------------------------------------------------

    def __add__(self, other: "ExactMatrix") -> "ExactMatrix":
        self._same_shape(other)
        return ExactMatrix(self.rows, self.cols,
                           tuple(a + b for a, b in zip(self.entries, other.entries)))

    def __sub__(self, other: "ExactMatrix") -> "ExactMatrix":
        self._same_shape(other)
        return ExactMatrix(self.rows, self.cols,
                           tuple(a - b for a, b in zip(self.entries, other.entries)))

    def __neg__(self) -> "ExactMatrix":
        return ExactMatrix(self.rows, self.cols, tuple(-a for a in self.entries))

    def scale(self, s) -> "ExactMatrix":
        s = as_cyclo(s)
        return ExactMatrix(self.rows, self.cols, tuple(s * a for a in self.entries))

    def _same_shape(self, other: "ExactMatrix") -> None:
        if (self.rows, self.cols) != (other.rows, other.cols):
            raise ValueError(f"shape mismatch {self.rows}x{self.cols} vs {other.rows}x{other.cols}")

    def __matmul__(self, other: "ExactMatrix") -> "ExactMatrix":
        """Entry (i, j) is one ``_dot`` over the pairs (a_it, b_tj) with both
        factors nonzero; one row of pairs is held at a time."""
        if self.cols != other.rows:
            raise ValueError(f"cannot multiply {self.rows}x{self.cols} by {other.rows}x{other.cols}")
        b_rows = [[(j, y) for j, y in enumerate(other.row(t)) if y] for t in range(other.rows)]
        out = []
        for i in range(self.rows):
            pairs = [[] for _ in range(other.cols)]
            for x, b_row in zip(self.row(i), b_rows):
                if x:
                    for j, y in b_row:
                        pairs[j].append((x, y))
            out += [_dot(p) if p else ZERO for p in pairs]
        return ExactMatrix(self.rows, other.cols, tuple(out))

    def mat_vec(self, vec: Sequence[CycloNum]) -> tuple[CycloNum, ...]:
        if len(vec) != self.cols:
            raise ValueError("vector length does not match column count")
        live = [(j, x) for j, x in enumerate(vec) if x]
        e, n = self.entries, self.cols
        return tuple(_dot([(e[i * n + j], x) for j, x in live])
                     for i in range(self.rows))

    def transpose(self) -> "ExactMatrix":
        return ExactMatrix(self.cols, self.rows,
                           tuple(self.get(i, j) for j in range(self.cols) for i in range(self.rows)))

    def __pow__(self, n: int) -> "ExactMatrix":
        if self.rows != self.cols or n < 0:
            raise ValueError("power of a non-square matrix or with a negative exponent")
        out = ExactMatrix.identity(self.rows)
        base = self
        while n:
            if n & 1:
                out = out @ base
            base = base @ base
            n >>= 1
        return out

    # -- elimination-backed queries -----------------------------------------

    def rank(self) -> int:
        return row_rank(self.sparse_rows(), self.cols)

    def kernel(self) -> list[tuple[CycloNum, ...]]:
        """Exact basis of the null space; dimension = cols - rank."""
        return null_space(rref(self.sparse_rows()), self.cols)

    def solve_many(self, rhs_list: Sequence[Sequence[CycloNum]]):
        """Solve self @ x = b for several b at once (free variables set to 0).

        Returns a list with one solution tuple (or None) per right-hand side:
        x, minus column m + t of the pivot rows of A's columns (the kernel
        vector (x, e_t) of (A | -B)), if no other pivot row has an entry there,
        which holds exactly when b_t is consistent (the pivot columns of A
        span its column space).
        """
        n, m = self.rows, self.cols
        for b in rhs_list:
            if len(b) != n:
                raise ValueError("right-hand side length does not match row count")
        rows = self.sparse_rows()
        for i, row in enumerate(rows):
            for t, b in enumerate(rhs_list):
                if b[i]:
                    row[m + t] = -b[i]
        basis = rref(rows)
        out = []
        for c in range(m, m + len(rhs_list)):
            x = [ZERO] * m
            for p, row in basis.items():
                coeff = row.get(c)
                if coeff is not None:
                    if p >= m:
                        x = None
                        break
                    x[p] = -coeff
            out.append(None if x is None else tuple(x))
        return out

    def inverse(self) -> "ExactMatrix":
        if self.rows != self.cols:
            raise ValueError("inverse of a non-square matrix")
        n = self.rows
        eye = [tuple(ONE if i == j else ZERO for i in range(n)) for j in range(n)]
        sols = self.solve_many(eye)
        if any(s is None for s in sols):
            raise EliminationError("matrix is singular")
        return ExactMatrix.from_columns(sols)

    def det(self) -> CycloNum:
        """The sign of the pivot order times the leads ``rref`` divided by:
        its other row operations add multiples of rows, and a full-rank square
        matrix ends as the permutation matrix of its pivot order."""
        if self.rows != self.cols:
            raise ValueError("determinant of a non-square matrix")
        basis, leads = _rref(self.sparse_rows())
        if len(basis) < self.rows:
            return ZERO
        order = list(basis)
        inversions = sum(a > b for i, a in enumerate(order) for b in order[i + 1:])
        return prod(leads, start=-ONE if inversions % 2 else ONE)

    # -- serialization ------------------------------------------------------

    def to_json(self) -> dict:
        return {"rows": self.rows, "cols": self.cols,
                "entries": [e.to_strings() for e in self.entries]}


# -- small vector helpers ----------------------------------------------------

def vec_add(u, v):
    return tuple(a + b for a, b in zip(u, v))


def vec_scale(s, u):
    return tuple(s * a for a in u)


def vec_dot(u, v):
    """sum(a * b for a, b in zip(u, v))."""
    return _dot(zip(u, v))
