"""Exact scalar and multivariate Laurent-polynomial arithmetic.

Everything downstream is built on two value types:

* :class:`GaussianRational` -- an exact element of Q(i), used for
  polynomial-identity testing at random points and for all numeric
  specializations.
* :class:`MultiLaurent` -- an exact multivariate Laurent polynomial with
  arbitrary-precision coefficients (int or GaussianRational), the universal
  value type for symbolic results.

All values are immutable after construction and all operations are pure, so
they are safe to share between threads or processes.

The routes built on this layer take int, Fraction and GaussianRational
scalars as given and leave the types to the arithmetic here: `inv`, the one
place any route inverts a value, and `gaussian_ints` refuse anything else
with UsageError.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import count, islice
from math import gcd, lcm
from operator import mul
from typing import Iterable, Mapping, Sequence, Union

__all__ = [
    "DomainError",
    "UsageError",
    "DegeneratePointError",
    "GaussianRational",
    "MultiLaurent",
    "gaussian_ints",
    "from_gaussian_ints",
    "inv",
    "bracket",
    "brace",
    "format_scalar",
    "parse_scalar",
    "interpolate_laurent",
    "interpolate_along",
    "abscissa_sweep",
    "div_exact_univar",
]


class DomainError(ValueError):
    """A mathematically invalid input (zero where an invertible is needed, etc.)."""


class UsageError(ValueError):
    """A malformed request (unknown variable, bad format, ...)."""


class DegeneratePointError(DomainError):
    """An evaluation point violating a nondegeneracy constraint; callers may resample."""


Scalar = Union[int, Fraction, "GaussianRational"]

_new = object.__new__


class GaussianRational:
    """An exact element a + b*i of Q(i).

    The value is stored as one integer triple (a + b*i)/d with d > 0 and
    gcd(a, b, d) = 1, so each operation is plain integer arithmetic followed
    by at most one gcd.  `re` and `im` are read-only Fraction views; the
    triple is never written after construction.  Each part given must be an
    int or a Fraction; anything else is a UsageError.
    """

    __slots__ = ("_a", "_b", "_d")

    def __init__(self, re: int | Fraction = 0, im: int | Fraction = 0):
        if type(re) is int and type(im) is int:
            self._a, self._b, self._d = re, im, 1
            return
        if not (isinstance(re, (int, Fraction)) and isinstance(im, (int, Fraction))):
            raise UsageError(f"parts must be int or Fraction: {re!r}, {im!r}")
        re, im = Fraction(re), Fraction(im)
        # over the lcm of two reduced denominators, gcd(a, b, d) is already 1
        d = lcm(re.denominator, im.denominator)
        self._a = re.numerator * (d // re.denominator)
        self._b = im.numerator * (d // im.denominator)
        self._d = d

    @property
    def re(self) -> Fraction:
        return Fraction(self._a, self._d)

    @property
    def im(self) -> Fraction:
        return Fraction(self._b, self._d)

    # -- predicates --------------------------------------------------------
    def is_rational(self) -> bool:
        return not self._b

    def __bool__(self) -> bool:
        return bool(self._a or self._b)

    # -- arithmetic ---------------------------------------------------------
    def __add__(self, other):
        if type(other) is GaussianRational:
            return _sum(self._a, self._b, self._d, other._a, other._b, other._d)
        if isinstance(other, int):
            return _sum(self._a, self._b, self._d, other, 0, 1)
        if isinstance(other, Fraction):
            return _sum(self._a, self._b, self._d, other.numerator, 0, other.denominator)
        return NotImplemented

    __radd__ = __add__

    def __neg__(self):
        return _triple(-self._a, -self._b, self._d)

    def __sub__(self, other):
        if type(other) is GaussianRational:
            return _sum(self._a, self._b, self._d, -other._a, -other._b, other._d)
        if isinstance(other, int):
            return _sum(self._a, self._b, self._d, -other, 0, 1)
        if isinstance(other, Fraction):
            return _sum(self._a, self._b, self._d, -other.numerator, 0, other.denominator)
        return NotImplemented

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        if type(other) is GaussianRational:
            c, e, f = other._a, other._b, other._d
        elif isinstance(other, int):
            # gcd(a*k, b*k, d) = gcd(k, d) because gcd(a, b, d) = 1
            g = gcd(other, self._d)
            k = other // g
            return _triple(self._a * k, self._b * k, self._d // g)
        elif isinstance(other, Fraction):
            c, e, f = other.numerator, 0, other.denominator
        else:
            return NotImplemented
        a, b, d = self._a, self._b, self._d * f
        if not b and not e:
            x, y = a * c, 0
        else:
            x, y = a * c - b * e, a * e + b * c
        if d != 1:
            g = gcd(x, y, d)
            if g != 1:
                x, y, d = x // g, y // g, d // g
        r = _new(GaussianRational)
        r._a, r._b, r._d = x, y, d
        return r

    __rmul__ = __mul__

    def inverse(self) -> "GaussianRational":
        a, b, d = self._a, self._b, self._d
        if not b:
            if not a:
                raise DomainError("division by zero in Q(i)")
            return _triple(d, 0, a) if a > 0 else _triple(-d, 0, -a)
        return _reduced(d * a, -d * b, a * a + b * b)

    def __truediv__(self, other):
        if isinstance(other, (int, Fraction)):
            other = GaussianRational(other)
        if isinstance(other, GaussianRational):
            return self * other.inverse()
        return NotImplemented

    def __rtruediv__(self, other):
        return self.inverse() * other

    def __pow__(self, k: int):
        if not isinstance(k, int):
            return NotImplemented
        if k < 0:
            return self.inverse() ** (-k)
        out = _triple(1, 0, 1)
        base = self
        while k:
            if k & 1:
                out = out * base
            base = base * base
            k >>= 1
        return out

    # -- comparison -----------------------------------------------------------
    def __eq__(self, other) -> bool:
        if type(other) is GaussianRational:
            return self._a == other._a and self._b == other._b and self._d == other._d
        if isinstance(other, int):
            return not self._b and self._d == 1 and self._a == other
        if isinstance(other, Fraction):
            return (not self._b and self._a == other.numerator
                    and self._d == other.denominator)
        return NotImplemented

    def __hash__(self):
        if not self._b:
            return hash(self._a) if self._d == 1 else hash(Fraction(self._a, self._d))
        return hash((self._a, self._b, self._d))

    def __repr__(self) -> str:
        return f"GaussianRational({self.re!r}, {self.im!r})"

    def __str__(self) -> str:
        return format_scalar(self)


def _triple(a: int, b: int, d: int) -> GaussianRational:
    """GaussianRational from a triple already in normal form."""
    x = _new(GaussianRational)
    x._a, x._b, x._d = a, b, d
    return x


def _reduced(a: int, b: int, d: int) -> GaussianRational:
    """GaussianRational from a triple with d > 0, reduced by one gcd."""
    if d != 1:
        g = gcd(a, b, d)
        if g != 1:
            a, b, d = a // g, b // g, d // g
    return _triple(a, b, d)


def _sum(a: int, b: int, d: int, c: int, e: int, f: int) -> GaussianRational:
    """(a + b*i)/d + (c + e*i)/f for normalized triples.

    As for Fraction addition: with g = gcd(d, f), any common factor of the
    cross-multiplied numerator and denominator divides g.
    """
    g = gcd(d, f)
    if g == 1:
        return _triple(a * f + c * d, b * f + e * d, d * f)
    s, t = f // g, d // g
    x, y = a * s + c * t, b * s + e * t
    g = gcd(x, y, g)
    if g == 1:
        return _triple(x, y, d * s)
    return _triple(x // g, y // g, t * (f // g))


def gaussian_ints(values: Iterable[Scalar]) -> tuple:
    """Clear exact scalars to Gaussian integers over one denominator.

    Returns (re, im, d): integer lists and d > 0, the lcm of the values'
    denominators, with values[k] = (re[k] + im[k]*i)/d.  Anything but an
    int, Fraction or GaussianRational is a UsageError.
    """
    re, im, dens = [], [], []
    for x in values:
        if type(x) is GaussianRational:
            re.append(x._a)
            im.append(x._b)
            dens.append(x._d)
        elif isinstance(x, int):
            re.append(x)
            im.append(0)
            dens.append(1)
        elif isinstance(x, Fraction):
            re.append(x.numerator)
            im.append(0)
            dens.append(x.denominator)
        else:
            raise UsageError(f"not an exact scalar: {x!r}")
    d = lcm(*dens)
    for k, e in enumerate(dens):
        if e != d:
            re[k] *= d // e
            im[k] *= d // e
    return re, im, d


def from_gaussian_ints(re: Sequence[int], im: Sequence[int], d: int) -> list:
    """The GaussianRationals (re[k] + im[k]*i)/d for integers re[k], im[k]
    and d > 0, each reduced by one gcd."""
    if d < 1:
        raise DomainError(f"denominator {d} is not positive")
    out = []
    for a, b in zip(re, im):
        g = gcd(a, b, d)
        out.append(_triple(a, b, d) if g == 1 else _triple(a // g, b // g, d // g))
    return out


def inv(x):
    """Multiplicative inverse of an exact scalar or an invertible MultiLaurent.
    Every route inverts through here, so anything else (a float, say) is a
    UsageError here rather than an error deeper in the arithmetic."""
    if type(x) is GaussianRational:
        return x.inverse()
    if isinstance(x, int):
        if x == 0:
            raise DomainError("division by zero")
        return Fraction(1, x)
    if isinstance(x, Fraction):
        if not x:
            raise DomainError("division by zero")
        return 1 / x
    if isinstance(x, MultiLaurent):
        return x.inverse()
    raise UsageError(f"not an exact scalar: {x!r}")


def _power(x, k: int):
    """x^k for an exact scalar x and any integer k."""
    return x ** k if k >= 0 else inv(x) ** -k


def bracket(v):
    """v - 1/v.  Requires v invertible (nonzero scalar or unit monomial)."""
    return v - inv(v)


def brace(v):
    """v + 1/v.  Requires v invertible (nonzero scalar or unit monomial)."""
    return v + inv(v)


# ---------------------------------------------------------------------------
# scalar <-> string, per the polynomial JSON schema
# ---------------------------------------------------------------------------

def _frac_str(f: Fraction) -> str:
    return str(f.numerator) if f.denominator == 1 else f"{f.numerator}/{f.denominator}"


def format_scalar(c: Scalar) -> str:
    """Canonical decimal string: "3", "-1/2", or "a/b+c/d*i" for true Gaussians."""
    if isinstance(c, int):
        return str(c)
    if isinstance(c, Fraction):
        return _frac_str(c)
    if isinstance(c, GaussianRational):
        if not c.im:
            return _frac_str(c.re)
        sign = "+" if c.im > 0 else "-"
        return f"{_frac_str(c.re)}{sign}{_frac_str(abs(c.im))}*i"
    raise UsageError(f"cannot format {c!r}")


def parse_scalar(s: str) -> Scalar:
    """Parse the canonical scalar strings; returns int, Fraction, or GaussianRational.
    A zero denominator is a UsageError."""
    s = s.strip().replace(" ", "")
    try:
        if s.endswith("*i") or s.endswith("i"):
            body = s[:-2] if s.endswith("*i") else s[:-1]
            # split off the imaginary part: last +/- not at position 0 and not in a numerator sign
            idx = max(body.rfind("+", 1), body.rfind("-", 1))
            # guard against "1/-2"-style strings (not emitted, but be strict)
            if idx <= 0:
                re_part, im_part = "0", body if body not in ("", "+", "-") else body + "1"
            else:
                re_part, im_part = body[:idx], body[idx:]
            if im_part in ("+", "-"):
                im_part += "1"
            return GaussianRational(Fraction(re_part), Fraction(im_part))
        f = Fraction(s)
    except ZeroDivisionError:
        raise UsageError(f"zero denominator in scalar {s!r}") from None
    return int(f) if f.denominator == 1 else f


def _normcoef(c):
    """Coefficient normal form: int when integral, else GaussianRational."""
    if isinstance(c, int):
        return c
    if type(c) is GaussianRational:
        return c._a if not c._b and c._d == 1 else c
    if isinstance(c, Fraction):
        return c.numerator if c.denominator == 1 else _triple(c.numerator, 0, c.denominator)
    raise UsageError(f"bad coefficient {c!r}")


# ---------------------------------------------------------------------------
# MultiLaurent
# ---------------------------------------------------------------------------

class MultiLaurent:
    """Exact multivariate Laurent polynomial.

    terms maps integer exponent tuples (one slot per variable, negatives
    allowed) to nonzero coefficients.  Two values over the same variables are
    equal iff their term maps are equal; values over different variable lists
    are compared after aligning variables by name.
    """

    __slots__ = ("vars", "terms")

    def __init__(self, vars: Sequence[str], terms: Mapping[tuple, Scalar] | None = None):
        self.vars = tuple(vars)
        nv = len(self.vars)
        if len(set(self.vars)) != nv:
            raise UsageError(f"duplicate variable names in {self.vars}")
        tm = {}
        if terms:
            for e, c in terms.items():
                e = tuple(e)
                if len(e) != nv:
                    raise UsageError(f"exponent tuple {e} does not match {nv} variables")
                c = _normcoef(c)
                if c != 0:
                    tm[e] = c
        self.terms = tm

    # -- constructors ----------------------------------------------------------
    @staticmethod
    def const(c: Scalar, vars: Sequence[str] = ()) -> "MultiLaurent":
        vars = tuple(vars)
        return MultiLaurent(vars, {(0,) * len(vars): c})

    @staticmethod
    def var(name: str) -> "MultiLaurent":
        return MultiLaurent((name,), {(1,): 1})

    # -- basic structure -------------------------------------------------------
    def __bool__(self) -> bool:
        return bool(self.terms)

    def _aligned(self, other: "MultiLaurent"):
        """Common variable list: self's order, then other's unseen variables."""
        if self.vars == other.vars:
            return self.vars, self.terms, other.terms
        allv = list(self.vars) + [v for v in other.vars if v not in self.vars]
        return tuple(allv), _reindex(self, allv), _reindex(other, allv)

    def __eq__(self, other) -> bool:
        if isinstance(other, (int, Fraction, GaussianRational)):
            other = MultiLaurent.const(other)
        if not isinstance(other, MultiLaurent):
            return NotImplemented
        _, a, b = self._aligned(other)
        return a == b

    # -- ring operations ---------------------------------------------------------
    def __add__(self, other):
        if isinstance(other, (int, Fraction, GaussianRational)):
            other = MultiLaurent.const(other, self.vars)
        if not isinstance(other, MultiLaurent):
            return NotImplemented
        vars, a, b = self._aligned(other)
        out = dict(a)
        for e, c in b.items():
            s = out.get(e, 0) + c
            if s == 0:
                out.pop(e, None)
            else:
                out[e] = s
        return _raw(vars, out)

    __radd__ = __add__

    def __neg__(self):
        return _raw(self.vars, {e: -c for e, c in self.terms.items()})

    def __sub__(self, other):
        if isinstance(other, (int, Fraction, GaussianRational)):
            other = MultiLaurent.const(other, self.vars)
        if not isinstance(other, MultiLaurent):
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        if isinstance(other, (int, Fraction, GaussianRational)):
            c0 = _normcoef(other)
            if c0 == 0:
                return _raw(self.vars, {})
            return _raw(self.vars, {e: _normcoef(c * c0) for e, c in self.terms.items()})
        if not isinstance(other, MultiLaurent):
            return NotImplemented
        vars, a, b = self._aligned(other)
        out: dict = {}
        if len(a) > len(b):
            a, b = b, a
        for e1, c1 in a.items():
            for e2, c2 in b.items():
                e = tuple(x + y for x, y in zip(e1, e2))
                s = out.get(e, 0) + c1 * c2
                if s == 0:
                    out.pop(e, None)
                else:
                    out[e] = s
        return _raw(vars, {e: _normcoef(c) for e, c in out.items()})

    __rmul__ = __mul__

    def __pow__(self, k: int):
        if not isinstance(k, int):
            return NotImplemented
        if k < 0:
            return self.inverse() ** (-k)
        out = MultiLaurent.const(1, self.vars)
        base = self
        while k:
            if k & 1:
                out = out * base
            base = base * base
            k >>= 1
        return out

    def inverse(self) -> "MultiLaurent":
        """Inverse of a unit monomial c * prod(v^e); raises DomainError otherwise."""
        if len(self.terms) != 1:
            raise DomainError("only single monomials are invertible")
        (e, c), = self.terms.items()
        return _raw(self.vars, {tuple(-x for x in e): _normcoef(inv(c))})

    def __truediv__(self, other):
        if isinstance(other, (int, Fraction, GaussianRational)):
            return self * inv(other)
        if isinstance(other, MultiLaurent):
            return self * other.inverse()
        return NotImplemented

    # -- queries ----------------------------------------------------------------
    def _axis(self, var: str) -> int:
        try:
            return self.vars.index(var)
        except ValueError:
            raise UsageError(f"unknown variable {var!r} (have {self.vars})") from None

    def degree_range(self, var: str):
        """(min exponent, max exponent) of var, or None for the zero polynomial."""
        ax = self._axis(var)
        if not self.terms:
            return None
        exps = [e[ax] for e in self.terms]
        return min(exps), max(exps)

    def eval_at(self, point: Mapping[str, Scalar]):
        """Exact full evaluation; every variable must be assigned.

        Zero assigned to a variable occurring with a negative exponent is a
        DomainError.
        """
        vals = []
        for v in self.vars:
            if v not in point:
                raise UsageError(f"no value for variable {v!r}")
            vals.append(point[v])
        total = GaussianRational(0)
        powcache: list[dict] = [dict() for _ in self.vars]
        for e, c in self.terms.items():
            term = c
            for ax, k in enumerate(e):
                if k == 0:
                    continue
                p = powcache[ax].get(k)
                if p is None:
                    if not vals[ax] and k < 0:
                        raise DomainError(
                            f"zero assigned to {self.vars[ax]!r} with negative exponent")
                    p = _power(vals[ax], k)
                    powcache[ax][k] = p
                term = term * p
            total = total + term
        return _normcoef(total)

    # -- serialization ------------------------------------------------------------
    def sorted_terms(self):
        """Terms in lexicographic exponent order (deterministic iteration)."""
        return sorted(self.terms.items(), key=lambda kv: kv[0])

    def to_json(self) -> dict:
        return {
            "vars": list(self.vars),
            "terms": [{"e": list(e), "c": format_scalar(c)} for e, c in self.sorted_terms()],
        }

    @staticmethod
    def from_json(obj: Mapping) -> "MultiLaurent":
        try:
            vars = tuple(obj["vars"])
            terms = {tuple(t["e"]): parse_scalar(t["c"]) for t in obj["terms"]}
        except (KeyError, TypeError) as exc:
            raise UsageError(f"malformed polynomial JSON: {exc}") from exc
        return MultiLaurent(vars, terms)

    def __repr__(self):
        if not self.terms:
            return "0"
        bits = []
        for e, c in self.sorted_terms():
            mono = "*".join(
                f"{v}^{k}" for v, k in zip(self.vars, e) if k) or "1"
            bits.append(f"({format_scalar(c)})*{mono}")
        return " + ".join(bits)


def _raw(vars: tuple, terms: dict) -> MultiLaurent:
    """Internal constructor skipping revalidation (terms already canonical)."""
    p = _new(MultiLaurent)
    p.vars, p.terms = vars, terms
    return p


def _reindex(p: MultiLaurent, allv: list) -> dict:
    pos = [allv.index(v) for v in p.vars]
    n = len(allv)
    out = {}
    for e, c in p.terms.items():
        ne = [0] * n
        for i, k in enumerate(e):
            ne[pos[i]] = k
        out[tuple(ne)] = c
    return out


# ---------------------------------------------------------------------------
# exact interpolation and division helpers
# ---------------------------------------------------------------------------

# The weights of the latest abscissa set, (window, lo, (D, rows, scale)): one
# call's keys share them, and so do consecutive calls along the same sweep.
# Only one set is kept, so a large window's weights last until the next set.
_latest_weights = None


def _real_pairs(xs: Sequence[Scalar]) -> tuple:
    """The abscissae as reduced (numerator, denominator) pairs, equal for equal
    values whatever their types; a zero or non-real one is a UsageError."""
    re, im, d = gaussian_ints(xs)
    for k, b in enumerate(im):
        if b:
            raise UsageError(f"interpolation abscissa {format_scalar(xs[k])} is not real")
    if not all(re):
        raise UsageError("interpolation abscissae must be nonzero")
    return tuple((a // g, d // g) for a, g in zip(re, (gcd(a, d) for a in re)))


def _weights(xs: tuple, lo: int) -> tuple:
    """Integer interpolation weights for exponents [lo, lo + len(xs) - 1] at
    the abscissae xs, given as _real_pairs.

    Returns (D, rows, scale).  For samples cleared to Gaussian integers y over
    d, the polynomial's coefficient of var^(lo + j) is
    sum_k rows[j][k] scale[k] y[k] / (D d): the weight matrix, kept as its
    small integer rows times one integer per column.
    """
    global _latest_weights
    latest = _latest_weights
    if latest is not None and latest[1] == lo and latest[0] == xs:
        return latest[2]
    m = len(xs)
    hi = lo + m - 1
    if len(set(xs)) != m:
        raise UsageError("interpolation abscissae must be distinct")
    # Lagrange basis at x_k = p_k/q_k: l_k(x) = q_k^(m-1) M_k(x) / c_k, with
    # the integer polynomial M_k = prod_{i != k} (q_i x - p_i), a quotient of
    # the master polynomial M = prod_i (q_i x - p_i), and the integer
    # c_k = prod_{i != k} (q_i p_k - p_i q_k).  Column k of the weights of
    # x^-lo p(x) is M_k's coefficients times q_k^(m-1) x_k^-lo / c_k.
    master = [1]  # coefficients of M, lowest first
    for p, q in xs:
        master = [q * b - p * a for a, b in zip(master + [0], [0] + master)]
    cols, nums, dens = [], [], []
    for k, (pk, qk) in enumerate(xs):
        quot = [0] * m  # synthetic division of M by q_k x - p_k
        b = 0
        for j in range(m, 0, -1):
            b = quot[j - 1] = (master[j] + pk * b) // qk
        c = 1
        for i, (p, q) in enumerate(xs):
            if i != k:
                c *= q * pk - p * qk
        num = qk ** max(hi, 0) * pk ** max(-lo, 0)
        den = c * qk ** max(-hi, 0) * pk ** max(lo, 0)
        if den < 0:
            num, den = -num, -den
        g = gcd(num, den)
        cols.append(quot)
        nums.append(num // g)
        dens.append(den // g)
    D = lcm(*dens)
    scale = [num * (D // den) for num, den in zip(nums, dens)]
    g = gcd(D, *scale)
    w = D // g, [list(row) for row in zip(*cols)], [c // g for c in scale]
    _latest_weights = xs, lo, w
    return w


def _point_rows(xs: tuple, lo: int, points: tuple) -> list:
    """One (row, f) per point, given like xs as _real_pairs: for samples at
    xs cleared to Gaussian integers y over d, the polynomial through them
    takes the value row . y / (f d) there, with f > 0.  So a spare sample
    y_s, cleared together with the window's, fits iff row . y == f y_s."""
    D, rows, scale = _weights(xs, lo)
    m = len(xs)
    hi = lo + m - 1
    out = []
    for p, q in points:
        # x^(lo + j) = p^j q^(m-1-j) / (p^-lo q^hi) at x = p/q: one more row
        # of the weights, times the power of x the rows leave out
        powers = [p ** j * q ** (m - 1 - j) for j in range(m)]
        t = p ** max(lo, 0) * q ** max(-hi, 0)
        row = [sum(map(mul, powers, col)) * c * t for col, c in zip(zip(*rows), scale)]
        f = D * p ** max(-lo, 0) * q ** max(hi, 0)
        g = gcd(f, *row) if f > 0 else -gcd(f, *row)
        out.append(([r // g for r in row], f // g))
    return out


def interpolate_laurent(var: str, xs: Sequence[Scalar], ys: Sequence, min_exp: int,
                        max_exp: int) -> MultiLaurent:
    """Recover the unique Laurent polynomial with exponents in [min_exp, max_exp]
    from its exact values ys at distinct nonzero real abscissae xs.

    Needs len(xs) == max_exp - min_exp + 1.  The inverse Vandermonde matrix of
    the shifted polynomial x^-min_exp p(x), cleared to integers over one
    denominator D, is built once per abscissa set (`_weights`, which keeps the
    latest set); ys are cleared to Gaussian integers over one denominator d and
    scaled by the matrix's column factors, and each coefficient is then one
    integer dot product over D d.  A non-real abscissa is a UsageError.
    """
    m = max_exp - min_exp + 1
    if len(xs) != m or len(ys) != m:
        raise UsageError(f"need exactly {m} sample points, got {len(xs)}")
    D, rows, scale = _weights(_real_pairs(xs), min_exp)
    re, im, d = gaussian_ints(ys)
    re = list(map(mul, scale, re))
    im = list(map(mul, scale, im)) if any(im) else None
    dd = D * d
    terms = {}
    for e, row in enumerate(rows, min_exp):
        a = sum(map(mul, row, re))
        b = sum(map(mul, row, im)) if im else 0
        if a or b:
            terms[(e,)] = _normcoef(_reduced(a, b, dd))
    return _raw((var,), terms)


def interpolate_along(var: str, samples: Iterable, lo: int, hi: int, spare: int, at=None):
    """Laurent polynomial in var with exponents in [lo, hi] through the first
    hi - lo + 1 (x, y) pairs of samples, checked at the next `spare` pairs;
    given `at`, only that polynomial's value at var = at.

    y is a scalar, or a mapping in which a missing key means zero; then each
    key seen at any of the pairs is read and {key: result} is returned.
    Every x, and `at`, must be nonzero and real.  The weights of
    `interpolate_laurent` serve every key, and each spare check is one
    integer equality on the key's samples cleared together.  The value at
    `at` is one more row of those weights (the barycentric form): one dot
    product per key and no coefficients, an int when integral and else a
    GaussianRational, as `MultiLaurent.eval_at` gives.  Raises DomainError
    if a spare pair disagrees, i.e. the window is too small.
    """
    reads = () if at is None else _real_pairs([at])
    m = hi - lo + 1
    pts = list(islice(samples, m + spare))
    if len(pts) != m + spare:
        raise UsageError(f"need {m + spare} sample points, got {len(pts)}")
    xs = [x for x, _ in pts]
    window = xs[:m]
    rows = _point_rows(_real_pairs(window), lo, _real_pairs(xs[m:]) + reads)
    scalar = not isinstance(pts[0][1], Mapping)
    ys = [{None: y} if scalar else y for _, y in pts]
    out = {}
    for key in dict.fromkeys(k for y in ys for k in y):
        vals = [y.get(key, 0) for y in ys]
        if rows:
            re, im, d = gaussian_ints(vals)
            dots = [(sum(map(mul, row, re)), sum(map(mul, row, im)), f) for row, f in rows]
            if any(a != f * re[s] or b != f * im[s]
                   for s, (a, b, f) in enumerate(dots[:spare], m)):
                raise DomainError(f"interpolation window [{lo}, {hi}] in {var} too small")
        if reads:
            a, b, f = dots[-1]
            out[key] = _normcoef(_reduced(a, b, f * d))
        else:
            out[key] = interpolate_laurent(var, window, vals[:m], lo, hi)
    return out[None] if scalar else out


_SWEEP_PATIENCE = 120  # skips in a row before abscissa_sweep gives up


def abscissa_sweep(sample):
    """The pairs (x, sample(x)) at the distinct exact abscissae 3/2, 2/3,
    -3/2, 4/3, 3/4, -4/3, ..., as a lazy iterator.  An x where sample raises
    DegeneratePointError is skipped; any other exception propagates, and
    _SWEEP_PATIENCE skips in a row raise DomainError."""
    misses = 0
    for k in count(2):
        for cand in (Fraction(k + 1, k), Fraction(k, k + 1), Fraction(-k - 1, k)):
            x = GaussianRational(cand)
            try:
                y = sample(x)
            except DegeneratePointError:
                misses += 1
                if misses >= _SWEEP_PATIENCE:
                    raise DomainError("could not find enough nondegenerate sample points")
                continue
            misses = 0
            yield x, y


def div_exact_univar(p: MultiLaurent, d: MultiLaurent, var: str) -> MultiLaurent:
    """Exact division of univariate Laurent polynomials in `var`; raises if inexact."""
    if p.vars != (var,) or d.vars != (var,):
        raise UsageError("div_exact_univar expects univariate polynomials in the same variable")
    if not d:
        raise DomainError("division by the zero polynomial")
    if not p:
        return p
    rem = dict(p.terms)
    dmin, dmax = d.degree_range(var)
    pmin, _ = p.degree_range(var)
    qlow = pmin - dmin  # lowest exponent any exact quotient can contain
    lead_inv = inv(d.terms[(dmax,)])
    out = {}
    while rem:
        rmax = max(e[0] for e in rem)
        k = rmax - dmax
        if k < qlow:
            raise DomainError("inexact Laurent division")
        c = rem[(rmax,)] * lead_inv
        out[(k,)] = _normcoef(c)
        for (e,), dc in d.terms.items():
            key = (e + k,)
            s = rem.get(key, 0) - c * dc
            if s == 0:
                rem.pop(key, None)
            else:
                rem[key] = _normcoef(s)
    return MultiLaurent((var,), out)
