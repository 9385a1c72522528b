"""Monoid-in-group models with canonical normal forms.

A model fixes a unital submonoid P of a discrete group G together with a
proper length function.  Elements are plain hashable Python values (tuples,
strings, ints) in canonical normal form, so equality of normal forms is
equality in G; everything downstream (ideal calculus, word arithmetic,
truncated matrices) leans on that exactness.

Three families ship built in:

* ``free_abelian``: N^k inside Z^k, vectors as int tuples;
* ``free_monoid``: positive words inside a free group, reduced words as
  strings (lower case letters are generators, upper case their inverses);
* ``numerical``: a numerical semigroup <g1,...,gm> inside Z, gcd 1.

Every model carries an exact-ideal hook: a canonical finite token for
every right ideal the calculus can build, with exact translation,
preimage, intersection, subset and union-cover kernels and a listing of
the members up to a radius.  The token is the ideal's only
representation, so ideal enumeration is exact at any radius.  N^k and
F_n^+ are right-LCM: ``RightLCMModel`` derives their whole hook from the
lcm of two elements.  A numerical ideal's token is its Apery tuple, and
its hook works class by class.

Config documents are validated once, in ``build_model``.  Elements are
validated once, where raw values come in: ``parse``, ``WordTrace.make``
and ``build_frame`` call ``validate``.
Arithmetic (``mul``, ``inv``, ``in_p``, ``meets_p``) trusts its arguments
to be normal forms of the model and does not re-check them.

All model state is immutable after construction and every operation is a
pure function, so instances may be shared freely across threads.
"""

from __future__ import annotations

import heapq
import itertools
import math
import operator
import string

# Shared exact token for the empty right ideal, across all families.
EMPTY = ("empty",)

_LETTERS = string.ascii_lowercase

# Largest Schur bound a numerical model's generators may have; larger
# generator sets are refused before any work.
SIEVE_LIMIT = 10 ** 6


class ModelError(ValueError):
    """Invalid element, mismatched model, or unsupported construction."""


class Model:
    """Contract every concrete family implements.

    ``mul``/``inv`` operate on arbitrary group elements in normal form;
    ``in_p``, ``length`` and ``enumerate_p`` see the submonoid.

    The ``exact_*`` methods are the exact-ideal hook, on hashable tokens,
    one per ideal; ``render_token`` writes a token's report text.  The hook
    has no membership test: the package lists an ideal's members and never
    tests a single point.  A right-LCM family subclasses ``RightLCMModel``
    and gives only ``_lcm``; any other family writes the hook in full.

    An instance keeps five caches, each filled on first use:
    ``_enum_cache`` (``enumerate_p`` by length), ``_basis_cache``
    (``basis`` by length), ``_step_cache`` (one ``ideals.walk`` step,
    ``((p, q), token) -> token``), ``_factor_cache`` (the factor p^-1 q
    of ``WordTrace.grading``, by ``(p, q)``) and ``_positions_cache``
    (``positions`` by ``(token, n)``).
    Their keys are normal forms, canonical exact tokens and ints, which
    are immutable and equal exactly when the elements or ideals they
    denote are equal, and the model itself never changes; so an entry can
    never go stale, and each cache lives and dies with the instance.
    """

    family = "abstract"
    default_radius = 50
    default_trunc = 30
    default_gen_len = 1

    def __init__(self):
        self._enum_cache = {}
        self._basis_cache = {}
        self._step_cache = {}
        self._factor_cache = {}
        self._positions_cache = {}

    # -- group arithmetic ------------------------------------------------
    def mul(self, a, b):
        raise NotImplementedError

    def inv(self, a):
        raise NotImplementedError

    @property
    def unit(self):
        raise NotImplementedError

    @property
    def generators(self):
        raise NotImplementedError

    # -- submonoid data --------------------------------------------------
    def in_p(self, a) -> bool:
        raise NotImplementedError

    def length(self, a) -> int:
        """Proper length on G restricting to the submonoid length on P.
        It must be subadditive on G, |gx| <= |g| + |x|: every family's is,
        ``test_length_subadditive`` checks it, and a bound on how far a
        word moves a point by its grading's length rests on it."""
        raise NotImplementedError

    def enumerate_p(self, max_len: int):
        """All submonoid elements of length <= max_len, in ``sort_key``
        order, the family's ``_generate_p`` listing as it is.  Cached per
        model instance."""
        if max_len < 0:
            raise ModelError("max_len must be >= 0")
        got = self._enum_cache.get(max_len)
        if got is None:
            got = tuple(self._generate_p(max_len))
            self._enum_cache[max_len] = got
        return got

    def basis(self, max_len: int):
        """``(enumerate_p(max_len), index)`` with ``index`` mapping each
        element to its position.  Cached per model instance."""
        got = self._basis_cache.get(max_len)
        if got is None:
            elems = self.enumerate_p(max_len)
            got = (elems, {s: k for k, s in enumerate(elems)})
            self._basis_cache[max_len] = got
        return got

    def positions(self, tok, n):
        """The basis indices of the members of length <= n of the ideal of
        ``tok``, as a tuple, ascending: both lists follow ``sort_key``.
        Cached per model instance."""
        key = (tok, n)
        got = self._positions_cache.get(key)
        if got is None:
            index = self.basis(n)[1]
            got = tuple(map(index.__getitem__,
                            self.exact_members_upto(tok, n)))
            self._positions_cache[key] = got
        return got

    def _generate_p(self, max_len):
        """The submonoid elements of length <= max_len, listed in
        ``sort_key`` order: the order is the family's contract, and
        ``enumerate_p`` keeps it without sorting."""
        raise NotImplementedError

    def sort_key(self, a):
        """Listing order: length, then normal form.  Required of a family:
        each word's shift x -> g*x keeps this order from its domain onto
        its range (it prefixes words, translates a cone, shifts a set), so
        ``fock.rep_vword`` pairs the two listings."""
        return (self.length(a), a)

    def meets_p(self, g) -> bool:
        """Whether g*P intersects P inside G (g any group element)."""
        raise NotImplementedError

    def validate(self, a):
        """Return ``a`` if it is a normal form of this model, else raise
        ModelError; the one check on raw input."""
        raise NotImplementedError

    # -- serialization ---------------------------------------------------
    def parse(self, obj):
        raise NotImplementedError

    def render(self, a):
        raise NotImplementedError

    def config(self) -> dict:
        raise NotImplementedError

    def render_token(self, tok):
        """The report form of an exact token."""
        return repr(tok)

    # -- exact ideal hook --------------------------------------------------
    # Tokens are canonical hashable values; EMPTY is shared by all families.

    def exact_full(self):
        raise NotImplementedError

    def exact_left_mul(self, p, tok):
        raise NotImplementedError

    def exact_preimage(self, p, tok):
        raise NotImplementedError

    def exact_intersect(self, tok, other):
        raise NotImplementedError

    def exact_subset(self, tok, other) -> bool:
        raise NotImplementedError

    def exact_union_covers(self, tok, others) -> bool:
        """Whether the ideal of ``tok`` is contained in the union of the
        ideals of ``others`` (exact, not radius-limited)."""
        raise NotImplementedError

    def exact_members_upto(self, tok, radius: int):
        """The members of length <= radius, in ``sort_key`` order."""
        raise NotImplementedError


class RightLCMModel(Model):
    """A right-LCM monoid: every constructible right ideal is empty or
    principal, gP, and gP ∩ hP is lcm(g, h)P or empty (Nica 1992, Li
    2012).  The token ``(_tag, g)`` stands for gP.  A family gives its
    ``_tag`` and ``_lcm(g, h)``, the generator of gP ∩ hP for g, h in P
    or None when that is empty, and the whole exact-ideal hook follows."""

    def exact_full(self):
        return (self._tag, self.unit)

    def exact_left_mul(self, p, tok):
        if tok == EMPTY:
            return EMPTY
        return (self._tag, self.mul(p, tok[1]))

    def exact_preimage(self, p, tok):
        # p^-1 (gP) ∩ P = p^-1 (pP ∩ gP)
        if tok == EMPTY:
            return EMPTY
        m = self._lcm(p, tok[1])
        return EMPTY if m is None else (self._tag, self.mul(self.inv(p), m))

    def exact_intersect(self, tok, other):
        if EMPTY in (tok, other):
            return EMPTY
        m = self._lcm(tok[1], other[1])
        return EMPTY if m is None else (self._tag, m)

    def exact_subset(self, tok, other):
        if tok == EMPTY:
            return True
        return other != EMPTY and self._lcm(tok[1], other[1]) == tok[1]

    def exact_union_covers(self, tok, others):
        # gP lies in a union of ideals exactly when g does, so in one of them
        return tok == EMPTY or any(self.exact_subset(tok, o) for o in others)

    def exact_members_upto(self, tok, radius):
        if tok == EMPTY:
            return []
        g = tok[1]
        room = radius - self.length(g)
        if room < 0:
            return []
        return [self.mul(g, x) for x in self.enumerate_p(room)]


class FreeAbelianModel(RightLCMModel):
    """N^k inside Z^k; elements are int tuples, length is the l1 norm.

    A non-empty ideal is a translated positive cone, stored by its corner
    vector; two corners' lcm is their coordinatewise max.
    """

    family = "free_abelian"
    _tag = "corner"

    def __init__(self, rank: int):
        super().__init__()
        if rank < 1:
            raise ModelError("free_abelian rank must be a positive int")
        self.rank = rank
        self.name = f"N^{rank}"
        self.default_trunc = 30 if rank == 1 else 12

    @property
    def unit(self):
        return (0,) * self.rank

    @property
    def generators(self):
        gens = []
        for i in range(self.rank):
            v = [0] * self.rank
            v[i] = 1
            gens.append(tuple(v))
        return tuple(gens)

    def validate(self, a):
        if not (isinstance(a, tuple) and len(a) == self.rank
                and all(map(_is_int, a))):
            raise ModelError(f"bad element for {self.name}: {a!r}")
        return a

    def mul(self, a, b):
        return tuple(map(operator.add, a, b))

    def inv(self, a):
        return tuple(map(operator.neg, a))

    def in_p(self, a):
        return min(a) >= 0

    def length(self, a):
        return sum(map(abs, a))

    def _generate_p(self, max_len):
        """Stars and bars: the vectors of sum t are the rank - 1 cuts
        among t + rank - 1 slots."""
        k = self.rank
        for t in range(max_len + 1):
            for cuts in itertools.combinations(range(t + k - 1), k - 1):
                ends = (-1,) + cuts + (t + k - 1,)
                yield tuple(b - a - 1 for a, b in zip(ends, ends[1:]))

    def meets_p(self, g):
        return True

    def parse(self, obj):
        if isinstance(obj, (list, tuple)) and all(map(_is_int, obj)):
            return self.validate(tuple(obj))
        raise ModelError(f"cannot parse {obj!r} as a vector")

    def render(self, a):
        return list(a)

    def config(self):
        return {"family": "free_abelian", "rank": self.rank}

    def _lcm(self, g, h):
        return tuple(map(max, g, h))


class FreeMonoidModel(RightLCMModel):
    """Positive words inside a free group; reduced words as strings.

    Lower case letters are generators, upper case letters their formal
    inverses.  Non-empty ideals are w * P for a positive word w.
    """

    family = "free_monoid"
    _tag = "word"
    default_radius = 6
    default_trunc = 7

    def __init__(self, rank: int):
        super().__init__()
        if not 1 <= rank <= 10:
            raise ModelError("free_monoid rank must be an int in 1..10")
        self.rank = rank
        self.letters = _LETTERS[:rank]
        self.name = f"F{rank}+"

    @property
    def unit(self):
        return ""

    @property
    def generators(self):
        return tuple(self.letters)

    def validate(self, a):
        if not isinstance(a, str):
            raise ModelError(f"bad element for {self.name}: {a!r}")
        for ch in a:
            if ch.lower() not in self.letters:
                raise ModelError(f"letter {ch!r} outside alphabet of {self.name}")
        if self._reduce(a) != a:
            raise ModelError(f"{a!r} is not a reduced word of {self.name}")
        return a

    @staticmethod
    def _reduce(word):
        out = []
        for ch in word:
            if out and out[-1] == ch.swapcase():
                out.pop()
            else:
                out.append(ch)
        return "".join(out)

    def mul(self, a, b):
        # both factors are reduced, so only the seam can cancel
        if not a or not b or a[-1] != b[0].swapcase():
            return a + b
        k, m = 1, min(len(a), len(b))
        while k < m and a[-1 - k] == b[k].swapcase():
            k += 1
        return a[:len(a) - k] + b[k:]

    def inv(self, a):
        return a[::-1].swapcase()

    def in_p(self, a):
        return a.islower() or a == ""

    def length(self, a):
        return len(a)

    def _generate_p(self, max_len):
        if max_len > 16:
            raise ModelError("free monoid truncation beyond length 16 refused")
        words = []
        for n in range(max_len + 1):
            words.extend("".join(w) for w in itertools.product(self.letters, repeat=n))
        return words

    def meets_p(self, g):
        # gP meets P iff the reduced word is a positive prefix followed by
        # an inverse suffix (then g = s * t^{-1} with s, t positive)
        seen_upper = False
        for ch in g:
            if ch.isupper():
                seen_upper = True
            elif seen_upper:
                return False
        return True

    def parse(self, obj):
        if isinstance(obj, str):
            return self.validate(self._reduce(obj))
        raise ModelError(f"cannot parse {obj!r} as a word")

    def render(self, a):
        return a

    def config(self):
        return {"family": "free_monoid", "rank": self.rank}

    def _lcm(self, g, h):
        # gP meets hP only when one word is a prefix of the other
        if g.startswith(h):
            return g
        return h if h.startswith(g) else None

    def exact_members_upto(self, tok, radius):
        # concatenation: positive words never cancel, so no mul is needed
        if tok == EMPTY:
            return []
        w = tok[1]
        room = radius - len(w)
        if room < 0:
            return []
        return [w + u for u in self.enumerate_p(room)]


class NumericalModel(Model):
    """A numerical semigroup <g1,...,gm> inside Z (gcd of generators 1).

    Membership is read off the Apery set of the smallest generator g0.  A
    nonempty right ideal I meets each residue class r mod g0 in the ray
    from its least member there, so its token is its Apery tuple, the g0
    ints w[r] = min{x in I : x = r mod g0} (Rosales and Garcia-Sanchez,
    *Numerical Semigroups*, ch. 1), and every kernel works class by class.
    """

    family = "numerical"

    def __init__(self, gens):
        super().__init__()
        gens = tuple(sorted(set(gens)))
        if not gens or any(g < 1 for g in gens):
            raise ModelError("numerical generators must be positive integers")
        if math.gcd(*gens) != 1:
            raise ModelError("numerical generators must have gcd 1 (so the group is Z)")
        self.gens = gens
        self.name = "<" + ",".join(str(g) for g in gens) + ">"
        self._apery = self._apery_set(gens)
        self.default_gen_len = max(gens)

    @staticmethod
    def _apery_set(gens):
        """The Apery set of the smallest generator g0.

        The set holds the least member of each residue class mod g0: the
        shortest paths from 0 over the residues, an edge r -> r + g of
        weight g per other generator g.  An integer is a member exactly
        when it is at least its class's least member.  Sets whose Schur
        bound exceeds SIEVE_LIMIT are refused, as when membership was
        sieved up to that bound."""
        g0 = gens[0]
        bound = max((g0 - 1) * (max(gens) - 1) + max(gens), g0 + 1)
        if bound > SIEVE_LIMIT:
            raise ModelError(f"numerical generators {list(gens)} need a "
                             f"membership sieve of {bound} entries, above "
                             f"the limit {SIEVE_LIMIT}")
        apery = [0] + [math.inf] * (g0 - 1)
        heap = [(0, 0)]
        while heap:
            n, r = heapq.heappop(heap)
            if n > apery[r]:
                continue
            for g in gens[1:]:
                s = (r + g) % g0
                if n + g < apery[s]:
                    apery[s] = n + g
                    heapq.heappush(heap, (n + g, s))
        return tuple(apery)

    @property
    def unit(self):
        return 0

    @property
    def generators(self):
        return self.gens

    def validate(self, a):
        if not _is_int(a):
            raise ModelError(f"bad element for {self.name}: {a!r}")
        return a

    def mul(self, a, b):
        return a + b

    def inv(self, a):
        return -a

    def in_p(self, a):
        return a >= self._apery[a % self.gens[0]]

    def length(self, a):
        return abs(a)

    def _generate_p(self, max_len):
        return [n for n in range(max_len + 1) if self.in_p(n)]

    def meets_p(self, g):
        return True

    def parse(self, obj):
        if _is_int(obj):
            return obj
        raise ModelError(f"cannot parse {obj!r} as an integer")

    def render(self, a):
        return a

    def config(self):
        return {"family": "numerical", "generators": list(self.gens)}

    def render_token(self, tok):
        """("num", the members below the tail, the tail's start)."""
        if tok == EMPTY:
            return repr(tok)
        tail = max(tok) - self.gens[0] + 1
        return repr(("num", tuple(self.exact_members_upto(tok, tail - 1)),
                     tail))

    # exact hook: the Apery tuple w, class by class
    def exact_full(self):
        return self._apery

    def exact_left_mul(self, p, tok):
        if tok == EMPTY:
            return EMPTY
        g0 = self.gens[0]
        return tuple(tok[(r - p) % g0] + p for r in range(g0))

    def exact_preimage(self, p, tok):
        # x in P with x + p in I: both are rays of the class of x
        if tok == EMPTY:
            return EMPTY
        g0 = self.gens[0]
        return tuple(max(a, tok[(r + p) % g0] - p)
                     for r, a in enumerate(self._apery))

    def exact_intersect(self, tok, other):
        if EMPTY in (tok, other):
            return EMPTY
        return tuple(map(max, tok, other))

    def exact_subset(self, tok, other):
        if tok == EMPTY:
            return True
        return other != EMPTY and all(map(operator.ge, tok, other))

    def exact_union_covers(self, tok, others):
        # a union of rays in one class is the ray from their least start
        if tok == EMPTY:
            return True
        others = [o for o in others if o != EMPTY]
        return bool(others) and all(map(operator.ge, tok,
                                         map(min, zip(*others))))

    def exact_members_upto(self, tok, radius):
        if tok == EMPTY:
            return []
        g0 = self.gens[0]
        return list(heapq.merge(*(range(a, radius + 1, g0) for a in tok)))


def _is_int(value) -> bool:
    """The one int check on raw input: bools are refused as ints."""
    return isinstance(value, int) and not isinstance(value, bool)


def _int(value, what):
    if not _is_int(value):
        raise ModelError(f"{what} must be an int, got {value!r}")
    return value


def _ints(value, what):
    if not isinstance(value, (list, tuple)):
        raise ModelError(f"{what} must be a list of ints, got {value!r}")
    return [_int(v, what) for v in value]


# Each family reads one field besides "family", checked by its parser.
_FAMILIES = {
    "free_abelian": ("rank", lambda v: FreeAbelianModel(_int(v, "rank"))),
    "free_monoid": ("rank", lambda v: FreeMonoidModel(_int(v, "rank"))),
    "numerical": ("generators",
                  lambda v: NumericalModel(_ints(v, "generators"))),
}


def build_model(config: dict) -> Model:
    """Construct a model from a config document, e.g.
    ``{"family": "free_abelian", "rank": 2}``; the one check of its
    fields: ``rank`` is an int, ``generators`` a list of ints (bools are
    refused as ints), and no other field is given, since an unread field
    would still land in the report's config and the cache key."""
    if not isinstance(config, dict) or "family" not in config:
        raise ModelError("model config must be a dict with a 'family' key")
    family = config["family"]
    if family not in _FAMILIES:
        raise ModelError(f"unknown model family {family!r}; "
                         f"known: {sorted(_FAMILIES)}")
    field, make = _FAMILIES[family]
    for key in config:
        if key not in ("family", field):
            raise ModelError(f"model config for {family!r} has field "
                             f"{key!r}, which it does not read; its fields "
                             f"are 'family' and {field!r}")
    if field not in config:
        raise ModelError(f"model config for {family!r} missing field {field!r}")
    return make(config[field])
