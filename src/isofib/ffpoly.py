"""Exact arithmetic over GF(p): integers, polynomials and matrices.

Field elements are plain Python integers in ``[0, p)``, and GF(p) arithmetic
on them is Python's own (``% p``, ``pow(x, e, p)``, ``pow(x, -1, p)``); a
``PrimeField`` instance is a validated modulus with Euler's criterion.
Polynomials are immutable coefficient tuples, lowest degree first, with the
trailing coefficient nonzero (the zero polynomial is the empty tuple).
Matrices are rows of integers: ``matrix_mul_mod`` and ``rank_det_mod`` are
the one implementation of matrix arithmetic mod p, and an ``FpMatrix`` only
carries a field and its reduced rows.  Everything is exact: no floating
point, no external bignum library.  The value types are immutable and take
integers only (anything without ``__index__`` raises TypeError).

Polynomials have one exact multiply (byte-aligned Kronecker substitution) and
one power built on it for callers that need the whole of f^e.  A few
coefficients of f^e at one prime come from ``poly_pow_coeff``, which runs the
linear recurrence of f^e from its low end, its high end or both, and builds
no power.  ``is_squarefree`` runs Euclid on the coefficient lists of f and f'
at one prime.

Scans ask for the same coefficients of h^((p-1)/2) at every prime up to a
bound.  ``half_power_windows`` answers them all from one run of an integer
recurrence that is the same for every p, modulo the product of the primes
still to be read, and computes only the entries each read asks for, all of
them below p; h = H(x^d) runs as H.  A read's normaliser h(0)^e / S_n costs
what that read needs: h(0)^e is 1 when h(0) is a positive square, S_(p-1) is
-1 mod p, and any other read reduces S_n mod p once.  ``integer_resultant``
gives Res(f, f') once by subresultants, so that a scan knows where f mod p
is squarefree without a test per prime.
"""

from __future__ import annotations

import math
from operator import attrgetter, index

_MACHINE_WORD_LIMIT = 2**63


_MILLER_RABIN_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)


def _is_prime(n: int) -> bool:
    """Deterministic Miller-Rabin: bases 2, 3, 5, 7 are exact below 3,215,031,751
    (Jaeschke, Math. Comp. 61, 1993), the prime bases up to 37 below 2^64."""
    if n < 2:
        return False
    for q in _MILLER_RABIN_BASES:
        if n % q == 0:
            return n == q
    d, s = n - 1, 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for a in _MILLER_RABIN_BASES[:4] if n < 3_215_031_751 else _MILLER_RABIN_BASES:
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


class Frozen:
    """Base of the immutable value types: a subclass names the fields it is
    compared by in ``_fields`` and sets each attribute once in ``__init__``
    through ``object.__setattr__``.  Values of different classes are unequal."""

    __slots__ = ()
    _fields: tuple[str, ...] = ()

    def __init_subclass__(cls):
        cls._key = attrgetter(*cls._fields)

    def __setattr__(self, name: str, value) -> None:
        raise AttributeError(f"{type(self).__name__} is immutable: cannot set {name!r}")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"{type(self).__name__} is immutable: cannot delete {name!r}")

    def __eq__(self, other: object) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._key(self) == self._key(other)

    def __hash__(self) -> int:
        return hash(self._key(self))

    def __repr__(self) -> str:
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self._fields)
        return f"{type(self).__qualname__}({fields})"


class PrimeField(Frozen):
    """The prime field GF(p) for a prime p > 3 fitting in a machine word."""

    _fields = ("p",)

    def __init__(self, p: int):
        if not isinstance(p, int):
            raise TypeError("modulus must be an integer")
        if p >= _MACHINE_WORD_LIMIT:
            raise ValueError(f"modulus {p} does not fit a machine word")
        if not _is_prime(p):
            raise ValueError(f"modulus {p} is not prime")
        if p <= 3:
            raise ValueError(f"modulus {p} not allowed: characteristic must exceed 3")
        object.__setattr__(self, "p", p)

    def is_square(self, x: int) -> bool:
        """Euler criterion; 0 counts as a square."""
        x %= self.p
        if x == 0:
            return True
        return pow(x, (self.p - 1) // 2, self.p) == 1

    def smallest_non_residue(self) -> int:
        """Smallest positive quadratic non-residue (exists for every p > 2)."""
        for n in range(2, self.p):
            if not self.is_square(n):
                return n
        raise AssertionError("unreachable: GF(p) with p > 2 has a non-residue")


# ---------------------------------------------------------------------------
# polynomials


def _normalize(coeffs: list[int]) -> tuple[int, ...]:
    while coeffs and coeffs[-1] == 0:
        coeffs.pop()
    return tuple(coeffs)


def _mul_coeffs(p: int, a: tuple[int, ...], b: tuple[int, ...]) -> tuple[int, ...]:
    """Exact product of coefficient tuples mod p, by Kronecker substitution.

    Each operand is packed into one integer with a fixed number of bytes per
    coefficient, so that CPython's subquadratic integer multiplication does the
    work at every size (Harvey, J. Symbolic Comput. 2009).  A slot of the
    product holds a sum of at most min(len(a), len(b)) products of residues
    below p, which the width bounds, so no slot carries into the next; packing
    and unpacking are byte copies, linear in the size.
    """
    if not a or not b:
        return ()
    width = (2 * (p - 1).bit_length() + min(len(a), len(b)).bit_length() + 8) // 8

    def pack(coeffs: tuple[int, ...]) -> int:
        return int.from_bytes(b"".join(c.to_bytes(width, "little") for c in coeffs), "little")

    packed_a = pack(a)
    # CPython squares an integer faster than it multiplies two
    packed_b = packed_a if b is a else pack(b)
    size = (len(a) + len(b) - 1) * width
    raw = (packed_a * packed_b).to_bytes(size, "little")
    return tuple(int.from_bytes(raw[i : i + width], "little") % p for i in range(0, size, width))


class FpPolynomial(Frozen):
    """Dense univariate polynomial over GF(p), lowest-degree coefficient first."""

    _fields = ("field", "coeffs")

    def __init__(self, field: PrimeField, coeffs=()):
        object.__setattr__(self, "field", field)
        reduced = [index(c) % field.p for c in coeffs]
        object.__setattr__(self, "coeffs", _normalize(reduced))

    def degree(self) -> int:
        """Degree, with the zero polynomial at -1."""
        return len(self.coeffs) - 1

    def coeff(self, k: int) -> int:
        if 0 <= k < len(self.coeffs):
            return self.coeffs[k]
        return 0

    def __mul__(self, other: "FpPolynomial") -> "FpPolynomial":
        if self.field != other.field:
            raise ValueError("polynomials over different fields")
        prod = _mul_coeffs(self.field.p, self.coeffs, other.coeffs)
        return FpPolynomial(self.field, prod)

    def __pow__(self, e: int) -> "FpPolynomial":
        """Binary power on raw coefficient tuples; squares only while bits of e remain."""
        if e < 0:
            raise ValueError("negative polynomial power")
        p = self.field.p
        result: tuple[int, ...] = (1,)
        base = self.coeffs
        while True:
            if e & 1:
                result = _mul_coeffs(p, result, base)
            e >>= 1
            if not e:
                return FpPolynomial(self.field, result)
            base = _mul_coeffs(p, base, base)

    def evaluate(self, x: int) -> int:
        p = self.field.p
        acc = 0
        for c in reversed(self.coeffs):
            acc = (acc * x + c) % p
        return acc

    def is_squarefree(self) -> bool:
        """gcd(f, f') is a nonzero constant: Euclid on the coefficient lists of
        f and f', each step reducing a mod b in place and popping zeros off the
        top.  False for the zero polynomial and for f' = 0 at positive degree
        (f = g(x^p)); True for a nonzero constant."""
        p = self.field.p
        a = list(self.coeffs)
        b = [i * c % p for i, c in enumerate(a)][1:]
        while b and not b[-1]:
            b.pop()
        while b:
            lead_inv = pow(b[-1], -1, p)
            db = len(b) - 1
            while len(a) > db:
                c = a.pop() * lead_inv % p
                if c:
                    shift = len(a) - db
                    for i in range(db):
                        a[shift + i] = (a[shift + i] - c * b[i]) % p
            while a and not a[-1]:
                a.pop()
            a, b = b, a
        return len(a) == 1

    def __repr__(self) -> str:
        return f"FpPolynomial(p={self.field.p}, coeffs={self.coeffs})"


def _padic_digits(n: int, p: int) -> int:
    """1 + v_p(n!) (Legendre): the p-adic digits a run of n steps works with."""
    digits, power = 1, p
    while power <= n:
        digits += n // power
        power *= p
    return digits


def _power_series_head(h: tuple[int, ...], e: int, n: int, p: int) -> list[int]:
    """g_0, ..., g_n mod p of g = h^e, for integer coefficients h with h[0] a unit mod p.

    h g' = e h' g gives n h_0 g_n = sum_(k>=1) ((e+1)k - n) h_k g_(n-k)
    (Bostan-Gaudry-Schost, SIAM J. Comput. 2007), one step per n over the
    nonzero h_k.  Dividing by n drops v_p(n) p-adic digits, so the steps run
    mod p^r with r = 1 + v_p(n!) (Legendre) and g_n stays exact mod p; at a
    multiple of p the sum is divided by p exactly.  Inverses of units below p
    come from the table inv[u] = -(M // u) inv[M mod u] mod M.
    """
    modulus = p ** _padic_digits(n, p)
    inverse = [0, 1]
    for u in range(2, min(n + 1, p)):
        inverse.append((modulus - modulus // u) * inverse[modulus % u] % modulus)
    h0_inv = pow(h[0], -1, modulus)
    # (k, (e+1) k h_k / h_0, h_k / h_0) for each nonzero h_k, k >= 1
    terms = [(k, (e + 1) * k * c * h0_inv % modulus, c * h0_inv % modulus)
             for k, c in enumerate(h) if k and c]
    width = len(h) - 1  # g is padded with this many zeros below g_0
    g = [0] * width + [pow(h[0], e, modulus)]
    for i in range(1, n + 1):
        s = 0
        for k, w, c in terms:
            s += (w - i * c) * g[width + i - k]
        u = i
        while u % p == 0:
            u //= p
            s //= p
        g.append(s * (inverse[u] if u < p else pow(u, -1, modulus)) % modulus)
    return [c % p for c in g[width:]]


def _runs(coeffs: tuple[int, ...], e: int, ks) -> tuple[tuple[int, ...], int, list[int], int, int]:
    """How poly_pow_coeff reads ks from nonzero coefficients f: (h, top, shifted, low, high).

    f = x^v h with h(0) != 0, top = deg h^e, and shifted holds the indices
    k - ve.  The run from h takes low steps and reads the indices up to low;
    the run from rev(h) takes high steps and reads the rest (-1: no run).
    The cut between them is where the two take the fewest steps together.
    """
    v = next(i for i, c in enumerate(coeffs) if c)
    h = coeffs[v:]
    top = (len(h) - 1) * e
    shifted = [k - v * e for k in ks]
    inside = sorted(j for j in shifted if 0 <= j <= top)

    def steps(cut: int) -> int:  # h^e reads inside[:cut], rev(h)^e reads inside[cut:]
        return (inside[cut - 1] if cut else 0) + (top - inside[cut] if cut < len(inside) else 0)

    cut = min(range(len(inside) + 1), key=steps)
    low = inside[cut - 1] if cut else -1
    high = top - inside[cut] if cut < len(inside) else -1
    return h, top, shifted, low, high


def poly_pow_coeff(f: FpPolynomial, e: int, ks) -> tuple[int, ...]:
    """The coefficients of x^k in f^e, one for each k in ks; no power is built.

    f^0 = 1, and an index below 0 or beyond deg f^e reads 0.  With f = x^v h,
    h(0) != 0 and m = deg h, c_k(f^e) = c_(k-ve)(h^e) = c_(me-k+ve)(rev(h)^e),
    and both h and rev(h) have a unit constant term.  The indices in range
    are split into a lower part, read from h^e, and an upper part, read from
    rev(h)^e, at the cut where the two recurrences together take the fewest
    steps; a single index is read from the nearer end.
    """
    if e < 0:
        raise ValueError("negative polynomial power")
    if not f.coeffs:
        return tuple(int(e == 0 and k == 0) for k in ks)
    h, top, shifted, low_steps, high_steps = _runs(f.coeffs, e, ks)
    p = f.field.p
    low = _power_series_head(h, e, low_steps, p) if low_steps >= 0 else []
    high = _power_series_head(h[::-1], e, high_steps, p) if high_steps >= 0 else []
    return tuple(
        0 if not 0 <= j <= top else low[j] if j <= low_steps else high[top - j] for j in shifted
    )


def recurrence_work_mod(coeffs: tuple[int, ...], p: int, e: int, ks) -> int:
    """Steps times p-adic digits of the runs poly_pow_coeff makes for the
    coefficients ks of f^e, where f has the residues coeffs mod p, lowest
    degree first and without trailing zeros; no field is built.

    A step costs one product per nonzero coefficient of f, on integers of
    that many digits, so for a given f the kernel's time grows with this.
    """
    if e < 0:
        raise ValueError("negative polynomial power")
    if not coeffs:
        return 0
    _, _, _, low, high = _runs(coeffs, e, ks)
    return sum(n * _padic_digits(n, p) for n in (low, high) if n > 0)


def half_power_windows(h, reads, width: int) -> list[tuple[int, ...]]:
    """Coefficient windows of h^((p-1)/2) mod p for many primes p, from one run.

    h is an integer polynomial, lowest degree first, of degree m >= 1 with
    h(0) != 0, and 0 <= width <= m.  Each read (p, n) names an odd prime p
    not dividing h(0) and an index n < p.  Its answer is the window
    (g_n, g_(n-1), ..., g_(n-width+1)) mod p of g = h^((p-1)/2), with 0 at
    negative indices; only those entries are computed.

    With e = (p - 1)/2, G_n = (2h_0)^n n! g_n / h_0^e obeys G_0 = 1 and
    G_n = sum_k ((p+1)k - 2n) h_k (2h_0)^(k-1) (n-1)(n-2)...(n-k+1) G_(n-k).
    Mod p the factor is k - 2n, so one integer run A_n with k - 2n is G_n mod
    p for every prime, and below p, where S_n = (2h_0)^n n! is a unit,
    g_n = h_0^e A_n / S_n.  A read pays only for the part of the normaliser
    h_0^e / S_n it needs: h_0^e = 1 mod every p when h_0 is a positive square
    (Euler's criterion), which is decided once per run; at n = p - 1,
    S_n = -1 mod p (Fermat and Wilson), so a run whose reads all sit there
    keeps no S_n; any other read reduces S_n mod p once and inverts that.
    A runs modulo the product of the primes still to be read.  The
    coefficients enter as least-absolute residues mod that product, and again
    mod the smaller product once they outgrow it, so a step multiplies each
    window entry by a small integer when h has small ones.

    Where h = H(x^d), d > 1, g_n is c_(n/d)(H^e) for d | n and 0 otherwise:
    the run is one of H at n // d, and a read whose window holds no multiple
    of d is not run.  A read whose prime is even or divides h(0), or whose run
    index (n, or n // d where h = H(x^d)) is p or more, raises ValueError.
    """
    h = list(h)
    while h and not h[-1]:
        h.pop()
    m = len(h) - 1
    if m < 1 or not h[0]:
        raise ValueError(f"need a nonconstant integer polynomial with h(0) != 0, got {h}")
    if not 0 <= width <= m:
        raise ValueError(f"need a window width from 0 to deg h = {m}, got {width}")
    h0, two_h0 = h[0], 2 * h[0]
    d = math.gcd(*(k for k, c in enumerate(h) if k and c))
    reads = list(reads)
    for p, n in reads:
        if p < 3 or p % 2 == 0 or h0 % p == 0 or n // d >= p:
            raise ValueError(f"need an odd prime p not dividing h(0) = {h0} and a run index "
                             f"below p, got read ({p}, {n})")
    windows = [(0,) * width] * len(reads)
    if d > 1:  # h = H(x^d): a window's multiples of d lie in the window of H^e at n // d
        run = [r for r, (_, n) in enumerate(reads) if n >= 0 and n // d * d > n - width]
        span = -(-width // d)  # ceil(width / d) entries of H^e
        found = half_power_windows(h[::d], [(reads[r][0], reads[r][1] // d) for r in run], span)
        for r, window in zip(run, found):
            n = reads[r][1]
            windows[r] = tuple(0 if i % d else window[n // d - i // d]
                               for i in range(n, n - width, -1))
        return windows
    last: dict[int, int] = {}  # prime: its last read
    at: dict[int, list[int]] = {}
    track = False  # S_n is needed only by a read below p - 1
    for r, (p, n) in enumerate(reads):
        if n >= 0:
            if n > last.get(p, -1):
                last[p] = n
            if n < p - 1:
                track = True
            at.setdefault(n, []).append(r)
    leave: dict[int, list[int]] = {}
    for p, n in last.items():
        leave.setdefault(n, []).append(p)
    modulus = math.prod(last)

    def residues(terms: list[tuple[int, int]]) -> tuple[list[tuple[int, int]], int]:
        half = modulus // 2
        terms = [(k, (w + half) % modulus - half) for k, w in terms]
        return terms, max(abs(w) for _, w in terms).bit_length()

    terms, power = [], 1  # power = (2 h_0)^(k-1) mod the product
    for k, c in enumerate(h[1:], 1):
        if c:
            terms.append((k, c * power))
        power = power * two_h0 % modulus
    terms, term_bits = residues(terms)
    square = h0 > 0 and math.isqrt(h0) ** 2 == h0  # then h_0^e = 1 mod every p (Euler)
    window, s = [0] * (m - 1) + [1], 1  # the last m values of A; S_n
    for n in range(max(last.values(), default=-1) + 1):
        if n:
            total = 0
            fall, j = 1, 1  # fall = (n-1)(n-2)...(n-j+1)
            for k, w in terms:  # entry -k of the window is the value at n - k
                while j < k:
                    fall *= n - j
                    j += 1
                total += (k - 2 * n) * fall * w * window[-k]
            window.append(total % modulus)
            del window[0]
            if track:
                s = s * (two_h0 * n) % modulus
        for r in at.get(n, ()):
            p = reads[r][0]
            # h_0^e / S_i for i = n, n - 1, ..., stepping by S_i = 2 h_0 i S_(i-1);
            # S_(p-1) = -1 mod p (Fermat and Wilson)
            factor = 1 if square else pow(h0, (p - 1) // 2, p)
            factor = p - factor if n == p - 1 else factor * pow(s % p, -1, p) % p
            count = min(width, n + 1)
            entries = [window[-1] % p * factor % p] if count else []
            for i in range(n, n - count + 1, -1):
                factor = factor * two_h0 * i % p
                entries.append(window[i - n - 2] % p * factor % p)
            windows[r] = tuple(entries) + (0,) * (width - count)
        for p in leave.get(n, ()):
            modulus //= p
            if term_bits > modulus.bit_length() + 1:
                terms, term_bits = residues(terms)
    return windows


def integer_resultant(f, g) -> int:
    """Res(f, g), the determinant of the Sylvester matrix of integer
    polynomials f and g (lowest degree first, nonzero leading coefficients).

    The subresultant remainder sequence of Collins and Brown (Cohen, "A Course
    in Computational Algebraic Number Theory", Alg. 3.3.7) keeps every
    remainder integral by exact divisions, so it takes about deg f * deg g
    integer steps where elimination on the Sylvester matrix takes the cube.
    """
    if len(f) < len(g):
        return (-1) ** ((len(f) - 1) * (len(g) - 1)) * integer_resultant(g, f)
    a, b = list(f[::-1]), list(g[::-1])  # highest degree first
    sign, lead, h = 1, 1, 1  # lead and h are g and h of the algorithm
    while len(b) > 1:
        delta = len(a) - len(b)
        if (len(a) - 1) * (len(b) - 1) % 2:
            sign = -sign
        # pseudo-remainder: lc(b)^(delta + 1) a mod b
        r = a[:]
        for i in range(delta + 1):
            c = r[i]
            r[i + 1 :] = [b[0] * x for x in r[i + 1 :]]
            for j, y in enumerate(b[1:], i + 1):
                r[j] -= c * y
        r = r[delta + 1 :]
        while r and not r[0]:
            del r[0]
        if not r:
            return 0
        divisor = lead * h**delta
        a, b = b, [c // divisor for c in r]
        lead = a[0]
        h = lead**delta // h ** (delta - 1) if delta else h
    return sign * (b[0] ** (len(a) - 1) * h // h ** (len(a) - 1))


# ---------------------------------------------------------------------------
# matrices


class FpMatrix(Frozen):
    """Dense matrix over GF(p), row-major, immutable after construction."""

    _fields = ("field", "rows", "cols", "entries")

    def __init__(self, field: PrimeField, entries):
        rows = [tuple(index(c) % field.p for c in row) for row in entries]
        ncols = len(rows[0]) if rows else 0
        if any(len(r) != ncols for r in rows):
            raise ValueError("ragged matrix rows")
        object.__setattr__(self, "field", field)
        object.__setattr__(self, "rows", len(rows))
        object.__setattr__(self, "cols", ncols)
        object.__setattr__(self, "entries", tuple(rows))

    def __repr__(self) -> str:
        return f"FpMatrix(p={self.field.p}, {self.rows}x{self.cols}, {self.entries})"


def matrix_rank_det(m: FpMatrix) -> tuple[int, int | None]:
    """Rank and determinant by Gaussian elimination over GF(p).

    The determinant is None for non-square matrices; the empty 0x0 matrix has
    rank 0 and determinant 1.
    """
    rank, det = rank_det_mod(m.entries, m.cols, m.field.p)
    return (rank, det) if m.rows == m.cols else (rank, None)


def matrix_mul_mod(a, b, p: int) -> list[list[int]]:
    """The product of integer matrices a and b, given as rows, mod p."""
    columns = list(zip(*b))
    return [[sum(x * y for x, y in zip(row, column)) % p for column in columns] for row in a]


def rank_det_mod(rows, cols: int, p: int) -> tuple[int, int]:
    """Rank and determinant mod p of an integer matrix given as rows, by
    Gaussian elimination one column at a time; the determinant is 0 below
    full row rank."""
    work = [[c % p for c in row] for row in rows]
    nrows = len(work)
    rank, det = 0, 1
    for col in range(cols):
        for r in range(rank, nrows):
            if work[r][col]:
                break
        else:
            continue  # no pivot in this column
        if r != rank:
            work[rank], work[r] = work[r], work[rank]
            det = -det
        top = work[rank]
        det = det * top[col] % p
        inv = pow(top[col], -1, p)
        for row in work[rank + 1 :]:
            factor = row[col] * inv % p
            if factor:
                for c in range(col, cols):
                    row[c] = (row[c] - factor * top[c]) % p
        rank += 1
    return rank, det if rank == nrows else 0
