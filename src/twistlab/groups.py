"""Computable group backends with a uniform interface.

Three backends: finite multiplication tables, free groups on reduced words,
and integer lattices.  An extension of a finite normal subgroup by a finite
quotient is a finite table that keeps its data.  Elements are plain hashable
values (index, word tuple, vector tuple) so they can key coefficient maps
directly:

  finite-table  -> int index, identity at 0
  free          -> tuple of nonzero ints, +i / -i for the i-th generator
                   and its inverse, freely reduced
  int-lattice   -> tuple of ints
  extension     -> int index |K| h + k of the pair (k, h), whose JSON form
                   is [k, h]

Each group fact has one owner.  The positions own the element order
(Group.in_order sorts by them); a finite group keeps its index table and
its inverses once, as read-only arrays; an extension keeps its action and
factor set only as the arrays phi and kappa.
"""

from __future__ import annotations

import functools
import math

import numpy as np

from .errors import (
    BackendMismatch,
    InvalidAction,
    InvalidFactorSet,
    InvalidGroupTable,
    MemoryBudgetExceeded,
    Unsupported,
)

# free-group positions are int64 up to here and Python ints past it
INT64_MAX = int(np.iinfo(np.int64).max)


def json_int(v, what):
    """v when it is a JSON integer, an int that is not a bool; ValueError
    naming ``what`` otherwise.  Every integer a descriptor holds is read so."""
    if type(v) is not int:
        raise ValueError(f"{what} must be an integer, got {v!r}")
    return v


class Group:
    """Common backend interface; subclasses fix the element representation."""

    kind = "abstract"
    is_finite = False

    def identity(self):
        raise NotImplementedError

    def compose(self, a, b):
        raise NotImplementedError

    def invert(self, a):
        raise NotImplementedError

    def in_order(self, elements):
        """The elements, duplicates kept, in the order of their positions:
        shortlex on a free group, (l1 norm, tuple) on a lattice, the index on
        a finite group."""
        elements = list(elements)
        return [elements[i] for i in np.argsort(self.positions(elements), kind="stable").tolist()]

    def elements(self):
        raise Unsupported(f"{self.kind} backend is not finite")

    def multiplication_table(self):
        raise Unsupported(f"{self.kind} backend is not finite")

    def enumerate_ball(self, r):
        """The elements of B_r, listed from their positions."""
        return self.words(self.ball_positions(r))

    def ball_positions(self, r):
        """The positions of B_r, here 0 .. |B_r| - 1.  Each backend numbers
        its elements itself (positions, and words their inverse), an infinite
        one in the order of its balls, so that a ball's positions are a
        prefix of the next ball's; the identity is at position 0."""
        return np.arange(self.ball_size(r))

    def products(self, xs, ys):
        """Positions of x * y for the x at positions xs and the y at positions
        ys, broadcast against each other as numpy broadcasts (xs[:, None]
        gives every pair, x by rows): composed word by word."""
        xs, ys = np.broadcast_arrays(xs, ys)
        pairs = zip(self.words(xs.ravel()), self.words(ys.ravel()))
        return self.positions([self.compose(x, y) for x, y in pairs]).reshape(xs.shape)

    def word_length(self, a):
        raise Unsupported(f"{self.kind} backend has no word length")

    def element_to_json(self, a):
        raise NotImplementedError

    def element_from_json(self, obj):
        """The element whose JSON form is obj; ValueError unless obj is
        exactly that form of an element of this group."""
        raise NotImplementedError

    def describe(self):
        raise NotImplementedError

    def same_backend(self, other):
        return other is self or self.describe() == other.describe()

    def check_same(self, other):
        if other is self:
            return
        mine, theirs = self.describe(), other.describe()
        if mine == theirs:
            return
        if self.kind != other.kind:
            raise BackendMismatch(f"{self.kind} vs {other.kind} backends differ")
        key = next(k for k in mine if mine[k] != theirs.get(k))
        detail = (f": {mine[key]} vs {theirs[key]}"
                  if isinstance(mine[key], (int, str)) and isinstance(theirs[key], (int, str))
                  else "")
        raise BackendMismatch(f"{self.kind} backends differ in {key}{detail}")


def number_positions(pos):
    """(distinct, inverse) for a 1-D array of positions, int64 or object
    (Python ints past int64): the distinct positions in increasing order,
    and for each entry the index of its value among them, as
    np.unique(pos, return_inverse=True) gives them, by a sort written
    out: on the few positions of a product in a small finite group
    np.unique's own set-up costs more than the sort.  Ranks do not depend
    on the sort algorithm, so the sort is numpy's stable one, which merges
    runs: a product x-major on a free group (a few words times a ball, or a
    power times a few words) comes in long increasing runs.  The 157,460
    positions of sphere-1's truncation at r = 9 on F2 argsort in 0.5-0.8 ms
    so, against 2.6-2.7 ms by quicksort (2-core x86-64 VM)."""
    perm = pos.argsort(kind="stable")
    ranked = pos[perm]
    first = np.empty(len(pos), dtype=bool)
    first[:1] = True
    np.not_equal(ranked[1:], ranked[:-1], out=first[1:])
    distinct = ranked[first]
    # freed before the ranks and the inverse are formed: one array fewer at the peak
    del ranked
    ranks = first.cumsum()
    ranks -= 1
    inverse = np.empty(len(pos), dtype=np.intp)
    inverse[perm] = ranks
    return distinct, inverse


def _read_only(a):
    a.flags.writeable = False
    return a


class FiniteTableGroup(Group):
    """Finite group given by an order-n multiplication table of indices.

    Index 0 is the identity.  The group keeps ``table``, the read-only intp
    array whose [i, j] is the index of i * j, and ``inverses``, the read-only
    array of each index's inverse.  It also keeps ``generators``, the
    read-only array of a generating set S picked from the table, and
    ``diameter``, the largest number of letters of S that any element needs
    (see _generating_set).  ``labels``, when given, are hashable display names
    used by fixtures and serialization but play no role in arithmetic.
    """

    kind = "finite-table"
    is_finite = True

    def __init__(self, table, labels=None, name="", validate=True):
        self.name = name
        self.labels = list(labels) if labels is not None else None
        if validate:
            table = self._validate_rows([tuple(row) for row in table])
        self.table = _read_only(np.asarray(table, dtype=np.intp))
        self.order = len(self.table)
        generators, self.diameter = _generating_set(self.table)
        self.generators = _read_only(generators)
        if validate:
            self._validate()
        self.inverses = _read_only(np.nonzero(self.table == 0)[1])

    def _validate_rows(self, rows):
        """The index table of the rows, checked to be a square table of
        indices with the identity at 0 and a 0 in every row."""
        n = len(rows)
        if n == 0:
            raise InvalidGroupTable("table is empty")
        if self.labels is not None and len(self.labels) != n:
            raise InvalidGroupTable("labels length differs from table order")
        for i, row in enumerate(rows):
            if len(row) != n:
                raise InvalidGroupTable(f"row {i} has length {len(row)}, expected {n}")
            if any(type(v) is not int or not 0 <= v < n for v in row):
                raise InvalidGroupTable(f"row {i} has entries that are not integers in [0, {n})")
        T, idx = np.array(rows, dtype=np.intp), np.arange(n)
        if (T[0] != idx).any() or (T[:, 0] != idx).any():
            raise InvalidGroupTable("identity is not at index 0")
        has_inverse = (T == 0).any(axis=1)
        if not has_inverse.all():
            raise InvalidGroupTable(f"element {int(np.argmin(has_inverse))} has no inverse")
        return T

    def _validate(self):
        """Associativity of the table, by Light's test (Clifford-Preston,
        The Algebraic Theory of Semigroups I, 1961, 1.2): the m with
        (x m) y = x (m y) for every x and y are closed under the product and
        hold the two-sided identity 0, so checking the triples (x, s, y) for s
        in the generators, which reach every index from 0, checks every
        triple: |S| n^2 of them, not n^3.  Only when one fails is the whole
        table searched, so that the error names the first failing triple in
        row-major order."""
        T, idx = self.table, np.arange(self.order)
        if _first_nonassociative(T, idx, self.generators, idx):
            bad = _first_nonassociative(T, idx, idx, idx)
            raise InvalidGroupTable(f"associativity fails at {bad}")

    def identity(self):
        return 0

    def compose(self, a, b):
        return self.table.item(a, b)

    def invert(self, a):
        return self.inverses.item(a)

    def elements(self):
        return list(range(self.order))

    def ball_size(self, n):
        return self.order

    def multiplication_table(self):
        """The read-only index table: [i, j] is the index of i * j."""
        return self.table

    def products(self, xs, ys):
        """One gather on the index table (see Group.products)."""
        return self.table[xs, ys]

    def positions(self, words):
        """An element's position is its index."""
        return np.array(words, dtype=np.int64)

    def words(self, pos):
        return np.asarray(pos, dtype=np.int64).tolist()

    def element_to_json(self, a):
        return int(a)

    def element_from_json(self, obj):
        if not 0 <= json_int(obj, "an element index") < self.order:
            raise ValueError(f"index {obj} out of range for order {self.order}")
        return obj

    def describe(self):
        return {"kind": self.kind, "order": self.order, "table": self.table.tolist()}

    def label(self, a):
        return self.labels[a] if self.labels is not None else a

    def index_of_label(self, lab):
        return self.labels.index(lab)

    def __repr__(self):
        return f"FiniteTableGroup({self.name or self.order})"


def reduce_word(letters):
    out = []
    for v in letters:
        if v == 0:
            raise ValueError("0 is not a generator letter")
        if out and out[-1] == -v:
            out.pop()
        else:
            out.append(v)
    return tuple(out)


def _letter(token):
    """The letter of a token x<i> or x<i>^-1, i a decimal numeral: i or -i."""
    inverse = token.endswith("^-1")
    digits = token[1:-3] if inverse else token[1:]
    if not (token.startswith("x") and digits.isascii() and digits.isdigit()):
        raise ValueError(f"bad generator token {token!r}")
    return -int(digits) if inverse else int(digits)


def letter_rank(v):
    """Rank of a letter in the order x1 < x1^-1 < x2 < x2^-1 < ..., so that
    letter_rank(-v) = letter_rank(v) ^ 1."""
    return 2 * v - 2 if v > 0 else -2 * v - 1


class FreeGroup(Group):
    """Free group of finite rank; elements are freely reduced letter tuples.
    Nothing is stored per generator, so a large rank costs no memory."""

    kind = "free"

    def __init__(self, rank):
        if rank < 1:
            raise ValueError("rank must be >= 1")
        self.rank = rank
        self._base = 2 * rank + 1

    def identity(self):
        return ()

    def compose(self, a, b):
        word = list(a)
        for v in b:
            if word and word[-1] == -v:
                word.pop()
            else:
                word.append(v)
        return tuple(word)

    def invert(self, a):
        return tuple(-v for v in reversed(a))

    def word_length(self, a):
        return len(a)

    def ball_size(self, n):
        """|B_n| = 1 + 2k((2k-1)^n - 1)/(2k-2), and 2n + 1 when k = 1."""
        q = 2 * self.rank - 1
        if q == 1:
            return 2 * n + 1
        return 1 + 2 * self.rank * (q ** n - 1) // (q - 1)

    def ball_positions(self, r):
        """The positions of B_r in shortlex order, built level by level."""
        if self.ball_size(r) > INT64_MAX:
            raise MemoryBudgetExceeded(self.ball_size(r), INT64_MAX)
        B = self._base
        digits = np.arange(1, B, dtype=self._dtype(r))
        levels = [np.zeros(1, dtype=digits.dtype)]
        for _ in range(r):
            last = levels[-1][:, None]
            levels.append((last * B + digits)[last % B != ((digits - 1) ^ 1) + 1])
        return np.concatenate(levels)

    def products(self, xs, ys):
        """Positions of x y for the words x at positions xs and y at positions
        ys, broadcast as numpy broadcasts (xs[:, None] gives every pair).
        While x's last digit is that of the inverse of y's leading digit, both
        are dropped; then y's digits follow x's."""
        B, xs, ys = self._base, np.asarray(xs), np.asarray(ys)
        lx, ly = self._digits(xs.max(initial=0)), self._digits(ys.max(initial=0))
        dtype = self._dtype(lx + ly)
        x, y = xs.astype(dtype), ys.astype(dtype)
        powers = B ** np.arange(ly + 1).astype(dtype)
        # a word of n letters sits in [(B^n - 1)/(B - 1), (B^(n+1) - 1)/(B - 1))
        n = np.searchsorted((powers - 1) // (B - 1), y, side="right") - 1
        for _ in range(min(lx, ly)):
            # y's leading digit sits at B^(n-1); at n = 0, y = 0 and so is lead
            place = powers[n - 1]
            lead = y // place
            drop = (n > 0) & (x % B == ((lead - 1) ^ 1) + 1)
            if not drop.any():
                break
            x = np.where(drop, x // B, x)
            y = np.where(drop, y - lead * place, y)
            n = n - drop
        return x * powers[n] + y

    def _digits(self, p):
        """The number of base-B digits of the integer p >= 0."""
        n, p = 0, int(p)
        while p:
            p //= self._base
            n += 1
        return n

    def _dtype(self, top):
        """int64 for words of up to top letters when the last such position,
        B^top - 1, fits in it, that is when INT64_MAX has more than top
        digits; else object, so that the same code runs on exact Python ints."""
        return np.int64 if top < self._digits(INT64_MAX) else object

    def positions(self, words):
        """Positions of reduced words: l_1 ... l_n sits at the bijective
        base-B numeral sum_i (letter_rank(l_i) + 1) B^(n-i), B = 2k + 1.
        Every digit is nonzero, so these sort as the words do in shortlex."""
        B = self._base
        out = []
        for w in words:
            p = 0
            for v in w:
                p = p * B + letter_rank(v) + 1
            out.append(p)
        return np.array(out, dtype=self._dtype(max(map(len, words), default=0)))

    def words(self, pos):
        """The reduced words at positions pos, as tuples.  The digits are
        taken off the low end in chunks of as many as fit in int64, so a long
        Python-int position is divided once per chunk, not once per letter."""
        B, pos = self._base, np.asarray(pos)
        top = self._digits(pos.max(initial=0))
        c = max(self._digits(INT64_MAX) - 1, 1)
        ranks = np.empty((pos.size, top), dtype=self._dtype(c))
        for i in range(top):
            if i % c == 0:
                pos, chunk = pos // B ** c, (pos % B ** c).astype(ranks.dtype)
            chunk, ranks[:, top - 1 - i] = chunk // B, chunk % B
        # a short word leaves its first columns 0; keep the digits, row by row
        filled = ranks > 0
        n = filled.sum(axis=1)
        ranks = ranks[filled]
        ranks -= 1  # from digits to letter ranks to letters, in place
        odd = (ranks & 1).astype(bool)
        ranks >>= 1
        ranks += 1
        np.negative(ranks, out=ranks, where=odd)
        letters = ranks.tolist()
        return [tuple(letters[j - k:j]) for j, k in zip(np.cumsum(n).tolist(), n.tolist())]

    def element_to_json(self, a):
        return " ".join(f"x{v}" if v > 0 else f"x{-v}^-1" for v in a)

    def element_from_json(self, obj):
        """The reduced word of obj: text of tokens x<i> and x<i>^-1 ("" or
        "e" for the identity), or a list of letters i and -i, 1 <= i <= rank."""
        if isinstance(obj, str):
            tokens = obj.split()
            obj = [] if tokens == ["e"] else list(map(_letter, tokens))
        if not isinstance(obj, list):
            raise ValueError(f"a free-group element is a string or a list, got {obj!r}")
        for v in obj:
            if not 1 <= abs(json_int(v, "a letter")) <= self.rank:
                raise ValueError(f"generator x{abs(v)} out of rank {self.rank}")
        return reduce_word(obj)

    def describe(self):
        return {"kind": self.kind, "rank": self.rank}

    def generator(self, i):
        """The i-th generator, 1-based: generator(1) is x1."""
        if not 1 <= i <= self.rank:
            raise ValueError(f"generator index {i} out of range 1..{self.rank}")
        return (i,)

    def __repr__(self):
        return f"FreeGroup(rank={self.rank})"


class IntLattice(Group):
    """Z^d with addition; word length is the l1 norm."""

    kind = "int-lattice"

    def __init__(self, dim):
        if dim < 1:
            raise ValueError("dim must be >= 1")
        self.dim = dim

    def identity(self):
        return (0,) * self.dim

    def compose(self, a, b):
        return tuple(x + y for x, y in zip(a, b))

    def invert(self, a):
        return tuple(-x for x in a)

    def word_length(self, a):
        return sum(abs(x) for x in a)

    def ball_size(self, n):
        return _lattice_ball_size(self.dim, n)

    def positions(self, words):
        """Positions of points, their indices in (norm, tuple) order, in
        closed form, so no ball is listed: |B_{n-1}| for n = |w|, plus the
        points of the sphere |w| = n before w.  Positions past int64 are
        Python ints in an object array, as on a free group."""
        out = []
        for w in words:
            left = self.word_length(w)
            p = _lattice_ball_size(self.dim, left - 1)
            for k, x in zip(range(self.dim - 1, -1, -1), w):
                p += _sphere_points_before(k, left, x)
                left -= abs(x)
            out.append(p)
        return np.array(out, dtype=np.int64 if max(out, default=0) <= INT64_MAX else object)

    def words(self, pos):
        """The points at positions pos, the inverse of positions."""
        return [_lattice_point(self.dim, p) for p in np.asarray(pos).tolist()]

    def element_to_json(self, a):
        return list(a)

    def element_from_json(self, obj):
        if not isinstance(obj, list) or len(obj) != self.dim:
            raise ValueError(f"a lattice element is a list of {self.dim} integers, got {obj!r}")
        return tuple(json_int(x, "a coordinate") for x in obj)

    def describe(self):
        return {"kind": self.kind, "dim": self.dim}

    def __repr__(self):
        return f"IntLattice(dim={self.dim})"


@functools.lru_cache(maxsize=1 << 16)
def _lattice_ball_size(d, n):
    """|B_n| of Z^d = sum_j 2^j C(d, j) C(n, j): j nonzero coordinates, their
    signs and their positive values summing to at most n; 0 for n < 0."""
    return sum(2 ** j * math.comb(d, j) * math.comb(n, j) for j in range(min(d, n) + 1))


@functools.lru_cache(maxsize=1 << 16)
def _lattice_point(d, p):
    """The point of Z^d at position p (see IntLattice.positions): its norm n
    and then each coordinate, by bisection on the counts positions adds."""
    left = _first_true(0, p + 1, lambda n: _lattice_ball_size(d, n) > p)
    p -= _lattice_ball_size(d, left - 1)
    point = []
    for k in range(d - 1, -1, -1):
        # the last x in [-left, left] with at most p sphere points before it
        x = _first_true(-left, left + 1, lambda v: _sphere_points_before(k, left, v) > p) - 1
        p -= _sphere_points_before(k, left, x)
        left -= abs(x)
        point.append(x)
    return tuple(point)


def _sphere_points_before(k, left, x):
    """How many points of norm left in Z^(k+1) have a first coordinate
    v < x: each v in [-left, left] brings the |B| difference of Z^k at
    left - |v|, so the v <= 0 sum to |B_(left + min(x, 1) - 1)| and the
    v in [1, x - 1] to |B_(left - 1)| - |B_(left - x)|."""
    before = _lattice_ball_size(k, left + min(x, 1) - 1)
    if x > 1:
        before += _lattice_ball_size(k, left - 1) - _lattice_ball_size(k, left - x)
    return before


def _first_true(lo, hi, test):
    """The first n in [lo, hi) with test(n), for a test false then true on
    that range; hi if it is nowhere true.  bisect.bisect_left on a range
    cannot stand in: it takes the range's len, an OverflowError past
    sys.maxsize, where lattice positions run on Python ints."""
    while lo < hi:
        mid = (lo + hi) // 2
        if test(mid):
            hi = mid
        else:
            lo = mid + 1
    return lo


def _generating_set(T):
    """(S, d) for the index table T: an intp array S of indices that reach
    every index from the identity 0 by right multiplication, and d, the depth
    of that breadth-first search, so that every element is a product of at
    most d elements of S.  S is picked greedily: grow {0} by right
    multiplication by S, and whenever the growth stops short of every index,
    add to S the smallest index not reached and search again."""
    n = len(T)
    generators = np.zeros(0, dtype=np.intp)
    while True:
        reached = np.zeros(n, dtype=bool)
        reached[0] = True
        frontier, depth = np.zeros(1, dtype=np.intp), 0
        while True:
            new = np.zeros(n, dtype=bool)
            new[T[frontier[:, None], generators]] = True
            new &= ~reached
            if not new.any():
                break
            reached |= new
            frontier, depth = np.flatnonzero(new), depth + 1
        if reached.all():
            return generators, depth
        generators = np.append(generators, np.argmin(reached))


def _first_nonassociative(T, xs, ys, zs):
    """The first (i, j, l), row-major, with (x_i y_j) z_l != x_i (y_j z_l) in
    the index table T, or None; about 2**13 triples at a time, each side
    gathered along one axis: rows of T[:, zs], and row x of T at y z."""
    Tz = T[:, zs]
    yz = Tz[ys]
    step = max(1, 2 ** 13 // max(yz.size, 1))
    for i in range(0, len(xs), step):
        x = xs[i:i + step]
        bad = Tz[T[x[:, None], ys]] != np.take(T[x], yz, axis=1)
        if bad.any():
            return tuple(map(int, np.argwhere(bad)[0] + (i, 0, 0)))
    return None


class ExtensionGroup(FiniteTableGroup):
    """Extension of a finite normal subgroup K by a finite quotient Lambda,
    held as the finite table of its elements.

    Data: an action ``h -> permutation of K indices`` and a factor set
    ``(h1, h2) -> K index``, given as dicts and kept only as the read-only
    index arrays ``phi[h, k]`` and ``kappa[h1, h2]`` over Lambda's indices.
    The pair (k, h) is the element at index |K| * index(h) + k, and pairs
    multiply as

        (k1, h1)(k2, h2) = (k1 * phi_{h1}(k2) * kappa(h1, h2), h1 h2),

    so K sits at 0 .. |K| - 1 and the section h -> (e, h) at multiples of
    |K|; s(e) = e by the normalisation of kappa.  The JSON form of an
    element is its pair [k, h].  An infinite quotient is refused: every exact
    path here needs the element list.  The data are checked when it is
    built, then the index table is gathered from those of K and Lambda, and
    the group law is checked as associativity on its section triples.  An
    error names an element of Lambda by its JSON form, the descriptor's key.
    """

    kind = "extension"

    def __init__(self, K: FiniteTableGroup, quotient: Group, action, factor_set):
        if not quotient.is_finite:
            raise Unsupported(f"extension quotients must be finite, got a {quotient.kind} group")
        self.K = K
        self.quotient = quotient
        action = {h: tuple(p) for h, p in action.items()}
        hs = quotient.elements()
        self._validate_data(hs, action, factor_set)
        # T[|K| h1 + k1, |K| h2 + k2] = |K| h1h2 + k1 phi_h1(k2) kappa(h1, h2)
        m, nl = K.order, len(hs)
        phi = self.phi = _read_only(np.array([action[h] for h in hs], dtype=np.intp))
        kappa = self.kappa = _read_only(np.array([[factor_set[(h1, h2)] for h2 in hs]
                                                  for h1 in hs], dtype=np.intp))
        TK, TL = K.multiplication_table(), quotient.multiplication_table()
        h1, k1, h2, k2 = (np.arange(nl)[:, None, None, None], np.arange(m)[:, None, None],
                          np.arange(nl)[:, None], np.arange(m))
        T = m * TL[h1, h2] + TK[TK[k1, phi[h1, k2]], kappa[h1, h2]]
        super().__init__(T.reshape(nl * m, nl * m), validate=False)
        self._validate_law(hs)

    def _validate_data(self, hs, action, factor_set):
        K, e_l, name = self.K, self.quotient.identity(), self.quotient.element_to_json
        TK = K.multiplication_table()
        for h in hs:
            p = action.get(h)
            if p is None or sorted(p) != list(range(K.order)):
                raise InvalidAction(f"action value at {name(h)} is not a permutation of K",
                                    witness=h)
            p = np.array(p, dtype=np.intp)
            bad = np.argwhere(p[TK] != TK[p[:, None], p])
            if len(bad):
                x, y = map(int, bad[0])
                raise InvalidAction(
                    f"action at {name(h)} is not an automorphism: phi(xy) != phi(x)phi(y) "
                    f"at (x, y) = ({x}, {y})",
                    witness=(h, x, y),
                )
        if action[e_l] != tuple(range(K.order)):
            raise InvalidAction("action of the quotient identity is not the identity map", witness=e_l)
        for (h1, h2), k in factor_set.items():
            if not 0 <= k < K.order:
                raise InvalidFactorSet(
                    f"kappa({name(h1)}, {name(h2)}) = {k!r} is not an element of K",
                    witness=(h1, h2))
        for h in hs:
            if factor_set[(e_l, h)] != 0 or factor_set[(h, e_l)] != 0:
                raise InvalidFactorSet(f"kappa is not normalised at {name(h)}", witness=h)

    def _validate_law(self, hs):
        # given the data checks, the product is associative iff it is on (s(h1), s(h2), s(h3)),
        # kappa's cocycle condition, and on (s(h1), s(h2), k), phi_h1 phi_h2 = Ad kappa phi_h1h2
        T, name = self.multiplication_table(), self.quotient.element_to_json
        s = np.arange(len(hs)) * self.K.order
        bad = _first_nonassociative(T, s, s, s)
        if bad:
            h1, h2, h3 = (hs[i] for i in bad)
            raise InvalidFactorSet(
                f"factor set fails the cocycle condition at ({name(h1)}, {name(h2)}, {name(h3)})",
                witness=(h1, h2, h3),
            )
        bad = _first_nonassociative(T, s, s, np.arange(self.K.order))
        if bad:
            h1, h2, k = hs[bad[0]], hs[bad[1]], bad[2]
            raise InvalidAction(
                f"action incompatible with factor set at ({name(h1)}, {name(h2)}), k = {k}",
                witness=(h1, h2, k),
            )

    def element_to_json(self, a):
        h, k = divmod(a, self.K.order)
        return [self.K.element_to_json(k), self.quotient.element_to_json(h)]

    def element_from_json(self, obj):
        if not isinstance(obj, list) or len(obj) != 2:
            raise ValueError(f"an extension element is a [k, h] pair, got {obj!r}")
        k = self.K.element_from_json(obj[0])
        return self.quotient.element_from_json(obj[1]) * self.K.order + k

    def describe(self):
        names = [self.quotient.element_to_json(h) for h in self.quotient.elements()]
        kappa = self.kappa.tolist()
        return {
            "kind": self.kind,
            "k": self.K.describe(),
            "lambda": self.quotient.describe(),
            "action": {str(h): p for h, p in zip(names, self.phi.tolist())},
            "factorSet": {f"{h1}|{h2}": k for h1, row in zip(names, kappa)
                          for h2, k in zip(names, row)},
        }

    def __repr__(self):
        return f"ExtensionGroup(|K|={self.K.order}, quotient={self.quotient!r})"
