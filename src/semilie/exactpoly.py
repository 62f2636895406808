"""Exact sparse Laurent-polynomial arithmetic.

One sparse container, ``_SparseMap``: a finitely supported map from keys to
nonzero coefficients, kept canonical (no zero coefficient is ever stored).
It holds construction, the module operations, equality and hashing once;
each subclass fixes its key rule and how a coefficient becomes canonical.

  * ``QPolynomial`` -- a Laurent polynomial in the residue-field size q,
    {exponent: scalar} with exponents possibly negative.  It adds the ring
    product and evaluation at a numeric q.
  * ``KeyedModule`` -- {key: QPolynomial}, the container of every other
    value semilie computes: ``LaurentSeries`` here (keys are T exponents;
    T stands for q**s, so a series is an exact stand-in for a function of
    the complex parameter s), and ``satake.SatakeY``, ``satake.SatakeGL``
    and ``orbital.HeckeVector``.

The fast paths' packed ints (``unpack``) are read here alone: ``_decoded``
decodes each distinct one once, ``QPolynomial._from_packed`` decodes one,
``QPolynomial._packed`` packs a polynomial where it fits,
``_sign_mask`` tests digit signs, and ``width_for`` turns a coefficient
bound into the width that holds it, the one way semilie picks a width.

Scalars are Python ints or ``fractions.Fraction``; there is no floating
point anywhere.  Values are immutable by convention: every operation
returns a new value, so instances are safe to share between threads.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Callable, Iterable, Mapping, Union

Scalar = Union[int, Fraction]


def _norm_scalar(c: Scalar) -> Scalar:
    """Collapse integral Fractions to int so dict equality stays canonical."""
    if type(c) is int:  # the common case; skips the ABC isinstance check
        return c
    if isinstance(c, Fraction) and c.denominator == 1:
        return c.numerator
    return c


def _join_signed(parts: list[tuple[str, str]]) -> str:
    """'a - b + c' from ("+" or "-", body) pairs; "0" when there are none."""
    if not parts:
        return "0"
    (first_sign, first_body), rest = parts[0], parts[1:]
    out = first_body if first_sign == "+" else f"-{first_body}"
    return out + "".join(f" {sign} {body}" for sign, body in rest)


class _SparseMap:
    """Finitely supported map from keys to nonzero coefficients.

    A subclass supplies its key rule (``_key``) and ``_canon``, which makes
    a coefficient canonical; a key missing from ``_terms`` stands for a zero
    coefficient, which each subclass's ``coefficient`` returns.  Values of
    different classes never compare equal and cannot be added.
    """

    __slots__ = ("_terms",)

    def __init__(self, terms: Mapping | Iterable[tuple] = ()):
        items = terms.items() if isinstance(terms, Mapping) else terms
        pairs = []
        for k, c in items:
            k = self._key(k)
            if k is not None and c:
                pairs.append((k, self._canon(c)))
        self._terms = self._accumulate({}, pairs)

    def _key(self, k):
        """Canonical form of the key ``k``; ``None`` drops the term, and an
        inadmissible key raises ValueError."""
        return k

    @classmethod
    def _accumulate(cls, d: dict, pairs: Iterable[tuple], negate: bool = False) -> dict:
        """Add (or with ``negate`` subtract) the nonzero canonical
        coefficients of ``pairs`` into the canonical dict ``d``, pruning any
        sum that cancels; returns ``d``."""
        canon, get = cls._canon, d.get
        for k, c in pairs:
            cur = get(k)
            if cur is None:
                d[k] = -c if negate else c
                continue
            s = cur - c if negate else cur + c
            if s:
                d[k] = canon(s)
            else:
                del d[k]
        return d

    @classmethod
    def _raw(cls, terms: dict):
        """Adopt ``terms`` without copying; caller must hand over a fresh,
        canonical dict (no zero values)."""
        self = object.__new__(cls)
        self._terms = terms
        return self

    def _like(self, terms: dict):
        """``_raw`` for a result of the same kind as ``self``; written out
        rather than calling ``_raw``, since every ``+`` and ``-`` ends here."""
        out = object.__new__(type(self))
        out._terms = terms
        return out

    @classmethod
    def zero(cls):
        return cls._raw({})

    # ------------------------------------------------------------- structure
    def items(self):
        """The (key, coefficient) pairs in storage order."""
        return self._terms.items()

    def sorted_items(self) -> list:
        return sorted(self._terms.items())

    def is_zero(self) -> bool:
        return not self._terms

    def __bool__(self) -> bool:
        return bool(self._terms)

    def __len__(self) -> int:
        return len(self._terms)

    # ---------------------------------------------------------------- module
    def __add__(self, other):
        if type(other) is not type(self):
            return NotImplemented
        return self._like(self._accumulate(dict(self._terms), other._terms.items()))

    def __neg__(self):
        return self._like({k: -c for k, c in self._terms.items()})

    def __sub__(self, other):
        if type(other) is not type(self):
            return NotImplemented
        return self._like(self._accumulate(dict(self._terms), other._terms.items(), negate=True))

    def scale(self, c):
        """Multiply every coefficient by ``c``.  A product of nonzero
        coefficients is nonzero, so only c == 0 can prune."""
        c, canon = self._canon(c), self._canon
        return self._like({k: canon(v * c) for k, v in self._terms.items()} if c else {})

    # ------------------------------------------------------------ comparison
    def __eq__(self, other: object) -> bool:
        return type(other) is type(self) and self._terms == other._terms

    def __hash__(self) -> int:
        return hash(frozenset(self._terms.items()))


class QPolynomial(_SparseMap):
    """Laurent polynomial in q with exact rational coefficients."""

    __slots__ = ()
    _canon = staticmethod(_norm_scalar)

    # ---------------------------------------------------------- constructors
    @classmethod
    def one(cls) -> "QPolynomial":
        return cls._raw({0: 1})

    @classmethod
    def constant(cls, c: Scalar) -> "QPolynomial":
        c = _norm_scalar(c)
        return cls._raw({0: c} if c else {})

    @classmethod
    def q_power(cls, e: int, c: Scalar = 1) -> "QPolynomial":
        c = _norm_scalar(c)
        return cls._raw({e: c} if c else {})

    @classmethod
    def geometric(cls, n: int) -> "QPolynomial":
        """1 + q + ... + q**n (n+1 terms); the empty sum 0 when n < 0."""
        if n < 0:
            return cls.zero()
        return cls._raw({e: 1 for e in range(n + 1)})

    @classmethod
    def _from_packed(cls, x: int, width: int) -> "QPolynomial":
        """The q-polynomial packed in ``x`` at ``width`` bits per digit (see
        ``unpack``)."""
        return cls._raw(unpack(x, width))

    def _packed(self, width: int) -> int | None:
        """``self`` packed at ``width`` bits per digit, the int ``unpack``
        reads back, or None where it does not pack: a negative exponent, a
        Fraction coefficient or one of 2**(width - 1) or more in absolute
        value.  None equals no int, so a polynomial that does not pack reads
        as different from every packed one."""
        half = 1 << (width - 1)
        x = 0
        for e, c in self._terms.items():
            if e < 0 or type(c) is not int or not -half < c < half:
                return None
            x += c << width * e
        return x

    # ------------------------------------------------------------- structure
    def coefficients(self):
        """Read-only view of the nonzero coefficients, in storage order."""
        return self._terms.values()

    def coefficient(self, e: int) -> Scalar:
        return self._terms.get(e, 0)

    def min_exponent(self) -> int:
        return min(self._terms)

    def max_exponent(self) -> int:
        return max(self._terms)

    # ------------------------------------------------------------------ ring
    def __mul__(self, other: "QPolynomial | Scalar") -> "QPolynomial":
        if isinstance(other, QPolynomial):
            sums: dict[int, Scalar] = {}
            get = sums.get
            for e1, c1 in self._terms.items():
                for e2, c2 in other._terms.items():
                    e = e1 + e2
                    sums[e] = get(e, 0) + c1 * c2
            return QPolynomial._raw({e: _norm_scalar(c) for e, c in sums.items() if c})
        if isinstance(other, (int, Fraction)):
            return self.scale(other)
        return NotImplemented

    __rmul__ = __mul__

    def shift(self, n: int) -> "QPolynomial":
        """Multiply by q**n."""
        return QPolynomial._raw({e + n: c for e, c in self._terms.items()})

    # ------------------------------------------------------------ evaluation
    def evaluate(self, q: Scalar) -> Scalar:
        """Exact value at a numeric q; a negative power at q = 0 raises
        ZeroDivisionError.

        With q = a/b, lowest exponent m and highest exponent t, the value is
        a**m / b**t times the sum of c a**(e - m) b**(t - e), which is
        accumulated in ints (for int coefficients) and divided once.
        """
        if not self._terms:
            return 0
        q = Fraction(q)
        a, b = q.numerator, q.denominator
        m, t = self.min_exponent(), self.max_exponent()
        total = 0
        for e, c in self._terms.items():
            total += c * a ** (e - m) * b ** (t - e)
        return _norm_scalar(Fraction(total * a ** max(m, 0) * b ** max(-t, 0), a ** max(-m, 0) * b ** max(t, 0)))

    # ------------------------------------------------------------ comparison
    def __eq__(self, other: object) -> bool:
        if isinstance(other, QPolynomial):  # first: the sweeps compare polynomials
            return self._terms == other._terms
        if isinstance(other, (int, Fraction)):
            return self == QPolynomial.constant(other)
        return NotImplemented

    def __hash__(self) -> int:
        # A constant equals its scalar, so it hashes like it; 0 hashes as 0.
        terms = self._terms
        if not terms:
            return 0
        if len(terms) == 1 and 0 in terms:
            return hash(terms[0])
        return _SparseMap.__hash__(self)

    # --------------------------------------------------------- serialization
    def to_json(self) -> dict:
        """{"q_terms": [[e, numerator, denominator], ...]} by increasing e;
        int and Fraction coefficients both carry the two attributes."""
        return {"q_terms": [[e, c.numerator, c.denominator] for e, c in sorted(self._terms.items())]}

    @classmethod
    def from_json(cls, data: Mapping) -> "QPolynomial":
        return cls((e, Fraction(num, den)) for e, num, den in data["q_terms"])

    # -------------------------------------------------------------- printing
    def __str__(self) -> str:
        parts = []
        for e in sorted(self._terms, reverse=True):
            c = self._terms[e]
            mag = c if c > 0 else -c
            mag_str = str(mag) if isinstance(mag, int) else f"({mag})"
            if e == 0:
                body = mag_str
            else:
                var = "q" if e == 1 else f"q^{e}"
                body = var if mag == 1 else f"{mag_str}{var}"
            parts.append(("+" if c > 0 else "-", body))
        return _join_signed(parts)

    def __repr__(self) -> str:
        return f"QPolynomial({dict(sorted(self._terms.items()))!r})"


def _as_qpoly(c: "QPolynomial | Scalar") -> QPolynomial:
    return c if isinstance(c, QPolynomial) else QPolynomial.constant(c)


class KeyedModule(_SparseMap):
    """Finitely supported map from keys to nonzero QPolynomial coefficients.

    The container behind ``LaurentSeries`` (keys: T exponents),
    ``satake.SatakeY`` (Y-exponents i >= 0), ``orbital.HeckeVector`` (basis
    levels r >= 0) and ``satake.SatakeGL`` (descending exponent tuples).
    A coefficient may be given as a scalar; it is stored as a constant
    QPolynomial.
    """

    __slots__ = ()
    _canon = staticmethod(_as_qpoly)

    def coefficient(self, k) -> QPolynomial:
        return self._terms.get(self._key(k), QPolynomial.zero())

    def __repr__(self) -> str:
        return f"{type(self).__name__}({ {k: str(c) for k, c in self.sorted_items()} })"


def unpack(x: int, width: int) -> dict[int, int]:
    """The canonical {e: c} map of the q-polynomial packed in ``x``.

    A polynomial sum of c_e q**e with e >= 0 and int coefficients
    |c_e| < 2**(width - 1) packs to its value at q = 2**width, the int
    sum of c_e 2**(width e) (Kronecker substitution).  Read in base
    2**width with balanced digits, those in (-2**(width - 1), 2**(width - 1)),
    each such int has exactly one expansion, so the digits read back lowest
    first are the coefficients, and two such ints are equal exactly when
    their polynomials are.  Sums and int multiples of packed polynomials are
    the packed sums and multiples, as long as every coefficient of the
    result stays in the digit range too.  A nonzero ``x`` has no digits
    below width 2 and raises ArithmeticError.

    Read digit by digit, n digits cost O(n**2); past ``_UNPACK_SPLIT`` bits
    ``x`` is split at k digits, in O(n log n) in all.  With X = 2**width,
    H = X/2 (X**k - 1)/(X - 1) has the digit X/2 at each of the k places,
    so the low k digits, each in [-X/2, X/2), sum to ((x + H) mod X**k) - H.
    """
    if x and width < 2:
        raise ArithmeticError(f"a nonzero int has no digits at width {width}")
    if x.bit_length() > _UNPACK_SPLIT + 2 * width:
        k = x.bit_length() // (2 * width)
        size = 1 << width * k
        offset = (size - 1) // ((1 << width) - 1) << (width - 1)
        low = ((x + offset) & size - 1) - offset
        out = unpack(low, width)
        out.update((e + k, c) for e, c in unpack((x - low) >> width * k, width).items())
        return out
    out = {}
    mask, half, full = (1 << width) - 1, 1 << (width - 1), 1 << width
    e = 0
    while x:
        d = x & mask
        if d >= half:
            d -= full
        if d:
            out[e] = d
        x = (x - d) >> width
        e += 1
    return out


_UNPACK_SPLIT = 1 << 14  # bits


def width_for(bound: int) -> int:
    """The least width at which every int c with |c| <= ``bound`` is a
    balanced digit that ``unpack`` reads back: bound < 2**bits(bound) =
    2**(width - 1), and one bit fewer would not hold c = bound.  At least 2,
    the least width ``unpack`` reads a nonzero int at, for bound >= 1."""
    return bound.bit_length() + 1


def _decoded(xs: Iterable[int], width: int, encode: Callable[[dict], object] = QPolynomial._raw) -> list:
    """``encode`` of ``unpack(x, width)`` for each int x of ``xs``, in order:
    each distinct int is decoded once, by default to its ``QPolynomial``, or
    to its JSON text (``_json_text``) or printed form (``_printed``), and
    equal ints share that one immutable value."""
    memo = {}
    out = []
    for x in xs:
        value = memo.get(x)
        if value is None:
            value = memo[x] = encode(unpack(x, width))
        out.append(value)
    return out


def _json_text(terms: dict[int, int]) -> str:
    """The JSON text of the q-polynomial of the ``unpack``ed ``terms``, byte
    for byte as the default ``json`` encoder writes its ``to_json()``:
    ``unpack`` yields int coefficients by increasing exponent, so each term
    is ``[e, c, 1]`` in that order."""
    text = ", ".join([f"[{e}, {c}, 1]" for e, c in terms.items()])
    return f'{{"q_terms": [{text}]}}'


def _printed(terms: dict[int, int]) -> str:
    """The printed form of the q-polynomial of the ``unpack``ed ``terms``."""
    return str(QPolynomial._raw(terms))


def _sign_mask(width: int, digits: int) -> int:
    """The mask m with x & m == 0 exactly when the int x, read at ``width``
    bits per digit (see ``unpack``), has every balanced digit d_e >= 0 and
    none but 0 from e = ``digits`` on.

    If every d_e >= 0 and e < ``digits``, x is sum d_e 2**(width e) with
    each d_e < 2**(width - 1): x >= 0 and its bits lie in the low width - 1
    bits of its first ``digits`` digits, the bits ~m.  If some d_e < 0,
    either x < 0 (its top digit is negative), or x > 0 and its lowest
    negative digit d_j borrows: bits width j.. of x hold d_j + 2**width,
    whose top bit is set.  A nonzero digit at e >= ``digits`` sets a bit
    above ~m's.  So one mask test reads the digits' signs.
    """
    half, full = 1 << (width - 1), 1 << width
    return ~((half - 1) * ((1 << width * digits) - 1) // (full - 1))


class LaurentSeries(KeyedModule):
    """Finitely supported sum over k of QPolynomial coefficients times T**k."""

    __slots__ = ()

    # ---------------------------------------------------- s-space evaluation
    def at_one(self) -> QPolynomial:
        """Value at T = 1 (the series at s = 0): the sum of all coefficients."""
        pairs = (pair for p in self._terms.values() for pair in p._terms.items())
        return QPolynomial._raw(QPolynomial._accumulate({}, pairs))

    def log_derivative_at_zero(self) -> QPolynomial:
        """d/ds at s = 0, divided by log q: since d/ds (q**s)**k =
        k log(q) (q**s)**k, the k-weighted sum of the coefficients.  The
        transcendental factor log q is never materialised, and every caller
        works with this normalisation."""
        pairs = ((e, _norm_scalar(k * c)) for k, p in self._terms.items() if k for e, c in p._terms.items())
        return QPolynomial._raw(QPolynomial._accumulate({}, pairs))

    @classmethod
    def _from_rows(cls, pair: tuple[int, list[int]], width: int) -> "LaurentSeries":
        """The series of the pair (lo, rows) whose T**(lo + i) coefficient is
        the q-polynomial packed in ``rows[i]`` at ``width`` bits per digit
        (see ``unpack``); a zero row is a zero coefficient.  Equal rows,
        common in the orbital series, share one coefficient (``_decoded``)."""
        lo, rows = pair
        polys = _decoded(rows, width)
        return cls._raw({k: poly for k, x, poly in zip(range(lo, lo + len(rows)), rows, polys) if x})

    @staticmethod
    def _rows_json_text(pair: tuple[int, list[int]], width: int) -> str:
        """The JSON text of ``_from_rows(pair, width).to_json()``, byte for
        byte as the default ``json`` encoder writes it, built from the rows
        without the series: zero rows are skipped and each distinct row is
        encoded once (``_decoded`` with ``_json_text``)."""
        lo, rows = pair
        texts = _decoded(rows, width, _json_text)
        parts = ", ".join([f"[{k}, {text}]" for k, x, text in zip(range(lo, lo + len(rows)), rows, texts) if x])
        return f'{{"t_terms": [{parts}]}}'

    # ------------------------------------------------------------ comparison
    # perfbench/tracing.py wraps __eq__ through LaurentSeries.__dict__, so it
    # is bound here; binding __eq__ in a class body resets __hash__ to None.
    __eq__ = KeyedModule.__eq__
    __hash__ = KeyedModule.__hash__

    # --------------------------------------------------------- serialization
    def to_json(self) -> dict:
        """{"t_terms": [[k, q-polynomial], ...]} by increasing k."""
        return {"t_terms": [[k, p.to_json()] for k, p in sorted(self._terms.items())]}

    # -------------------------------------------------------------- printing
    def __str__(self) -> str:
        parts = []
        for k in sorted(self._terms):
            p = self._terms[k]
            sign = "+"
            if len(p) == 1:
                ((e, c),) = p.items()
                if c < 0:
                    sign, p = "-", -p
            body = str(p)
            if k != 0:
                tvar = "T" if k == 1 else f"T^{k}"
                if p == QPolynomial.one():
                    body = tvar
                else:
                    body = f"{body}*{tvar}" if len(p) == 1 else f"({body})*{tvar}"
            parts.append((sign, body))
        return _join_signed(parts)

    def __repr__(self) -> str:
        return f"LaurentSeries({ {k: dict(sorted(p._terms.items())) for k, p in sorted(self._terms.items())}!r})"
