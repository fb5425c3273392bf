"""Vertex weights and exact square-ice partition functions for three
boundary shapes: domain-wall, half-turn even and half-turn odd.

Weights (parameter a, vertex spectral parameter s = rowvar * colvar^-1):

    types 1/2 -> sigma(a^2)      types 3/4 -> sigma(a*s)     types 5/6 -> sigma(a/s)

with sigma(u) = u - 1/u.  The modified normalization (`modified_partition`)
multiplies the whole state sum by one spectral monomial,
`modified_multiplier`, that clears every negative spectral exponent.

Half-turn states are represented as full six-vertex states of the ASM of
order 2m or 2m+1; only fundamental-domain vertices are weighted:

* even order 2m: columns 1..m over all 2m rows; row parameters read
  x1..xm then xm..x1 top to bottom, column parameters y1..ym.
* odd order 2m+1: columns 1..m over all 2m+1 rows with row parameters
  x1..xm, x(m+1), xm..x1, plus column m+1 over rows m+2..2m+1 whose line
  parameter is y(m+1) after the central turn.  The turning point (the
  central cell) carries weight 1.

Symbolic totals are Laurent polynomials over the integers in a and the
spectral variables, summed over the states the ASM stream lists by
Horner's rule on shared prefixes of their weight-class codes
(`_state_sums`, whose one caller is `_symbolic_value`).  Evaluated sums,
in Q(zeta) or Q, and the central-entry split of Z_HT(2m+1), in Laurent
polynomials (`z_split_odd`, its one route), run the row transfer matrix
over boundary profiles instead: the compiled plan of the model's ASM
class (`ModelSpec.klass`) and order, `enum_asm._transfer_plan`, which
the ASM stream walks too and whose module describes it.  A run carries
a value per position of each front: `_run_plan` forward, along the moves
out of it, to the last front, the closing profiles; `_run_pairs`
backward, from the closing profiles, each position summing over its own
moves.
Every state count, split by the central entry or not, comes from the
compile: `_transfer_plan`'s backward pass groups the moves by source and
counts on the way the paths to the closing profiles of each central
entry, and `state_counts` copies those counts.  The refined census of an ASM
class (`census`, what the CLI and the catalog read) is the plan run once
over monomials in u and t, each packed into an int as u^i t^j ->
2^((i*n + j)*w), w the bit length of the class's count: a coefficient
counts distinct matrices, so it stays below 2^w and no slot carries.
`enum_asm.census`, which lists every matrix, is its oracle in the tests.
An evaluated sum runs the plan on integer pairs (p, q) standing for
p + q*zeta in Z[zeta] (`_pair_weights`, `_run_pairs`).  Each value is read
once as V/d with V in Z[zeta] and d an integer; every weight triple is
multiplied by a factor that clears all of its denominators, so the sum
takes no inverse and no gcd, and the total is divided once, by the
product of those factors (`pair_quotient`).

Step k of the plan weighs with the k-th of `fundamental_cells`: the plan
cell itself, or, for the half-turn kinds, a top cell (i, j) with j > m in
place of its half-turn image, the fundamental cell (n+1-i, n+1-j), with
that cell's weights (x_i, y_(n+1-j)).  The image has the same entry e
and, when e = 0, the partial sums (1-C, 1-R), so C = R holds at both or
at neither and the two share a weight class.  The cells 1..m of an odd
middle row carry x(m+1), the central cell has weight 1, and its entry
keys the two parts of the split.

Two guards bound the work.  The compile refuses an order whose plan could
hold 2^PLAN_BOUND_BITS profile positions or more (`enum_asm.SizeTooLarge`,
before anything is built), which is all that the plan's own routes need:
counts, censuses and evaluated sums.  The routes that list every state, the
symbolic sums and the central split, also refuse more than
DEFAULT_MAX_STATES states, counted exactly by the compiled plan.
"""

from __future__ import annotations

from functools import lru_cache, reduce
from operator import add
from typing import Mapping, NamedTuple, Optional, Union

from .asm import Asm, _Frozen, to_state
from .enum_asm import (DEFAULT_MAX_STATES, CensusTable, SizeTooLarge, _plan_cells, _run_plan,
                       _transfer_plan, gen_asms)
from .exactnum import Cyclo, pair_mul, pair_quotient
from .laurent import LaurentPoly, sigma_of

KINDS = ("dwbc", "ht-even", "ht-odd")


class SingularAssignment(ValueError):
    """An assigned value of a or of a spectral variable is zero, a pole of
    the weights."""


class ModelSpec(_Frozen):
    """Which boundary shape, at which size (n for dwbc, m for ht kinds);
    immutable, compared by (kind, size)."""

    __slots__ = ("kind", "size")

    def __init__(self, kind: str, size: int):
        if kind not in KINDS:
            raise ValueError(f"unknown model kind {kind!r}")
        least = 0 if kind == "ht-odd" else 1
        if size < least:
            raise ValueError(f"{kind} size must be >= {least}, got {size}")
        _set_kind(self, kind)
        _set_size(self, size)

    @property
    def order(self) -> int:
        if self.kind == "dwbc":
            return self.size
        if self.kind == "ht-even":
            return 2 * self.size
        return 2 * self.size + 1

    @property
    def klass(self) -> str:
        """The ASM class whose matrices are the states: "all" or "ht"."""
        return "all" if self.kind == "dwbc" else "ht"

    @property
    def x_count(self) -> int:
        return self.size if self.kind != "ht-odd" else self.size + 1

    def spectral_vars(self) -> tuple[tuple[str, ...], tuple[str, ...]]:
        k = self.x_count
        return (tuple(f"x{i}" for i in range(1, k + 1)),
                tuple(f"y{i}" for i in range(1, k + 1)))


_set_kind = ModelSpec.kind.__set__
_set_size = ModelSpec.size.__set__


class PartitionResult(NamedTuple):
    value: Union[LaurentPoly, Cyclo]
    model: ModelSpec
    state_count: int
    normalization: str = "standard"  # "modified" from modified_partition

    def to_json_obj(self) -> dict:
        val = (self.value.to_json_obj() if isinstance(self.value, LaurentPoly)
               else str(self.value))
        return {
            "kind": self.model.kind,
            "sizeParam": self.model.size,
            "normalization": self.normalization,
            "stateCount": self.state_count,
            "value": val,
        }


def fundamental_cells(spec: ModelSpec) -> tuple[tuple[int, int, str, str], ...]:
    """(i, j, row variable, column variable) of every weighted vertex, one
    per plan cell (i, j) and in its order: the cell itself with (x_i, y_j)
    when j <= n/2 (every cell of dwbc), otherwise its half-turn image
    (n+1-i, n+1-j) with (x_i, y_(n+1-j))."""
    n = spec.order
    half = n if spec.kind == "dwbc" else n // 2
    return tuple((i, j, f"x{i}", f"y{j}") if j <= half
                 else (n + 1 - i, n + 1 - j, f"x{i}", f"y{n + 1 - j}")
                 for i, j in _plan_cells(spec.order, spec.klass))


# Weight class per vertex type: 0 -> sigma(a^2), 1 -> sigma(a*s), 2 -> sigma(a/s).
_WEIGHT_CLASS = {1: 0, 2: 0, 3: 1, 4: 1, 5: 2, 6: 2}


@lru_cache(maxsize=None)
def _state_profiles(kind: str, size: int):
    """((central entry, codes), ...): per central entry (0 for dwbc and
    ht-even), in the generator stream's order of first appearance, the
    sorted weight-class codes of its states' fundamental cells.  Cached.
    Never empty: ht-odd m = 0 is one 1 x 1 state with central entry 1."""
    spec = ModelSpec(kind, size)
    cells = fundamental_cells(spec)
    mid = (spec.order + 1) // 2
    groups = {}
    for m in gen_asms(spec.order, spec.klass):
        st = to_state(m)
        groups.setdefault(m[mid, mid] if kind == "ht-odd" else 0, []).append(
            tuple(_WEIGHT_CLASS[st[i, j]] for i, j, _, _ in cells))
    return tuple((central, sorted(codes)) for central, codes in groups.items())


def _state_sums(kind: str, size: int, weights, one):
    """The sum over the listed states of the product of their cells' weights.

    weights[k] is the (class 0, class 1, class 2) weight triple of the k-th
    fundamental cell in any ring whose unit is `one` (LaurentPoly, Cyclo).
    The products are summed by Horner's rule on shared prefixes: the states
    that agree on cells 0..k-1 sum to the sum over c of weights[k][c] times
    the sum over those that go on with code c at cell k, so each distinct
    prefix costs one product and no state is multiplied out alone.  Each
    central entry's group is summed apart and the group sums are added: one
    Horner pass over all the states at once gives the same total at a
    higher peak memory.
    """
    depth = len(weights)

    def horner(codes, lo, hi, k):
        # codes[lo:hi] agree on cells 0..k-1 and are sorted.
        if k == depth:
            return one * (hi - lo)
        total = None
        while lo < hi:
            c, mid = codes[lo][k], lo + 1
            while mid < hi and codes[mid][k] == c:
                mid += 1
            term = weights[k][c] * horner(codes, lo, mid, k + 1)
            total = term if total is None else total + term
            lo = mid
        return total

    return reduce(add, (horner(codes, 0, len(codes), 0)
                        for _, codes in _state_profiles(kind, size)))


def state_counts(spec: ModelSpec, max_states: Optional[int] = None) -> dict[int, int]:
    """{central entry: number of states} (key 0 for dwbc and ht-even), from
    the compiled transfer plan, whose compile refuses sizes past the plan
    bound.  Given max_states, a total past it raises SizeTooLarge as well:
    the guard of the routes that list every state."""
    counts = _transfer_plan(spec.order, spec.klass)[2]
    total = sum(counts.values())
    if max_states is not None and total > max_states:
        raise SizeTooLarge(f"order {spec.order} ({spec.kind} size {spec.size}) has {total} "
                           f"states, more than the guard {max_states}")
    return dict(counts)


def class_model(order: int, klass: str) -> ModelSpec:
    """The model whose states are the ASMs of a class ("all" or "ht") at an
    order: dwbc, or the half-turn kind of the order's parity."""
    if order < 1:
        raise ValueError("order must be >= 1")
    if klass == "all":
        return ModelSpec("dwbc", order)
    if klass == "ht":
        return ModelSpec("ht-odd" if order % 2 else "ht-even", order // 2)
    raise ValueError(f"unknown class {klass!r}")


def census(order: int, klass: str = "all") -> CensusTable:
    """The weighted refined census of an ASM class, as `enum_asm.census`
    builds it by listing, from one run of the compiled transfer plan, on
    packed ints.

    Over monomials, a cell's class-0 weight (a nonzero entry) is u, times
    t^(r-1) at a cell that puts the first column's 1 in row r: the plan
    cell (i, 1) with r = i, or for the half-turn kinds the cell (i, n) that
    stands for the image cell (n+1-i, 1).  The other classes weigh 1.  A
    state with N nonzero plan cells has k = (N-n)/2 entries -1 for dwbc, and
    k = N - floor(n/2) for the half-turn kinds, where each plan cell but the
    central one stands for two.  Half-turn order 1 is its central cell
    alone, so r = 1 there.

    Each monomial u^i t^j is packed as 2^((i*n + j)*w), one w-bit slot per
    (i, j), since j < n (one cell of a state carries t), with w the bit
    length of the class's count, so a front value is one int and a move
    one int product.  No slot carries: the plan is pruned, so every prefix
    completes, and a coefficient counts distinct prefixes of distinct
    matrices, at most the count, below 2^w.
    """
    spec = class_model(order, klass)
    steps, centrals, counts = _transfer_plan(spec.order, spec.klass)
    w = sum(counts.values()).bit_length()
    n, turned = order, klass == "ht"
    weights = []
    for i, j in _plan_cells(order, klass):
        e = i - 1 if j == 1 else n - i if turned and j == n else 0  # u * t^e
        weights.append((1 << (n + e) * w, 1, 1))
    mask = (1 << w) - 1
    tally = {}
    for central, packed in _run_plan(steps, centrals, weights, 1).items():
        slot = 0
        while packed:
            hits = packed & mask
            if hits:
                e_u, e_t = divmod(slot, n)
                k = e_u - n // 2 if turned else (e_u - n) // 2
                tally[k, e_t + 1, central] = hits
            packed >>= w
            slot += 1
    return CensusTable.from_tally(order, klass, tally)


def _symbolic_weights(kind: str, size: int) -> list:
    """Laurent weight triple (sigma(a^2), sigma(a*s), sigma(a/s)) of every
    fundamental cell (x, y), s = x/y: weight classes 0, 1 and 2."""
    class0 = sigma_of(LaurentPoly.monomial(1, {"a": 2}))
    return [(class0, sigma_of(LaurentPoly.monomial(1, {"a": 1, xv: 1, yv: -1})),
             sigma_of(LaurentPoly.monomial(1, {"a": 1, xv: -1, yv: 1})))
            for _, _, xv, yv in fundamental_cells(ModelSpec(kind, size))]


@lru_cache(maxsize=None)
def _symbolic_value(kind: str, size: int) -> LaurentPoly:
    """The symbolic state sum: the listed states summed by Horner's rule on
    shared prefixes."""
    return _state_sums(kind, size, _symbolic_weights(kind, size), LaurentPoly.const(1))


def partition_function(spec: ModelSpec,
                       assignment: Optional[Mapping[str, Cyclo]] = None,
                       max_states: Optional[int] = None) -> PartitionResult:
    """Exact state sum: symbolic Laurent polynomial, or a field value when
    an assignment for a and all spectral variables is given.

    Both run the compiled transfer plan, so both refuse sizes past the plan
    bound.  max_states, when given, is an exact state count that the sum
    must not pass; the symbolic sum, which lists every state, takes
    DEFAULT_MAX_STATES when it is None, and the evaluated one no count
    guard at all."""
    if max_states is None and assignment is None:
        max_states = DEFAULT_MAX_STATES
    count = sum(state_counts(spec, max_states).values())
    if assignment is None:
        return PartitionResult(_symbolic_value(spec.kind, spec.size), spec, count)
    names, _, _ = _point_layout(spec.kind, spec.size)
    missing = [v for v in names if v not in assignment]
    if missing:
        raise ValueError(f"missing assignments for {', '.join(missing)}")
    zeros = [v for v in names if not assignment[v]]
    if zeros:
        raise SingularAssignment(f"zero value for {', '.join(zeros)} puts a pole in the weights")
    weights, scale = _pair_weights(spec.kind, spec.size, assignment)
    steps, _, _ = _transfer_plan(spec.order, spec.klass)
    return PartitionResult(pair_quotient(_run_pairs(steps, weights), scale), spec, count)


@lru_cache(maxsize=None)
def _point_layout(kind: str, size: int):
    """(names, pairs, cell_pairs) of a model: the names ("a", x..., y...)
    an assignment must give, the distinct (row, column) variable pairs of
    the fundamental cells, and each cell's index into `pairs`."""
    spec = ModelSpec(kind, size)
    xs, ys = spec.spectral_vars()
    index = {}
    cell_pairs = tuple(index.setdefault((xv, yv), len(index))
                       for _, _, xv, yv in fundamental_cells(spec))
    return ("a", *xs, *ys), tuple(index), cell_pairs


def _pair_weights(kind: str, size: int, assignment: Mapping[str, Cyclo]):
    """(weights, scale) at an assignment of a and every spectral variable,
    none of them zero, all as integer pairs (p, q) = p + q*zeta.

    With a = A/d_a, x = X/d_x and y = Y/d_y (A, X, Y in Z[zeta]), the weight
    triple of a cell (x, y), s = x/y, times c = a^2 x y d_a^4 d_x^2 d_y^2 =
    A^2 d_a^2 (X d_x)(Y d_y) is

        sigma(a^2) c = (A^4 - d_a^4) (X d_x)(Y d_y)
        sigma(a s) c = A d_a (A^2 (X d_y)^2 - d_a^2 (Y d_x)^2)
        sigma(a/s) c = A d_a (A^2 (Y d_x)^2 - d_a^2 (X d_y)^2)

    Every state takes one weight from each cell, so a state sum over these
    weights is `scale`, the product of c over the cells, times the sum over
    the field weights.  Each (x, y) pair is weighted once.
    """
    _, pairs, cell_pairs = _point_layout(kind, size)
    aa, ab, da = Cyclo.of(assignment["a"]).integer_parts()
    a2 = pair_mul((aa, ab), (aa, ab))
    a4 = pair_mul(a2, a2)
    da2 = da * da
    class0 = a4[0] - da2 * da2, a4[1]
    ad = aa * da, ab * da
    c_a = a2[0] * da2, a2[1] * da2
    triples, cs = [], []
    for xv, yv in pairs:
        (xa, xb, dx), (ya, yb, dy) = (Cyclo.of(assignment[v]).integer_parts() for v in (xv, yv))
        xy = pair_mul((xa * dx, xb * dx), (ya * dy, yb * dy))
        xx = pair_mul((xa * dy, xb * dy), (xa * dy, xb * dy))
        yy = pair_mul((ya * dx, yb * dx), (ya * dx, yb * dx))
        a2xx, a2yy = pair_mul(a2, xx), pair_mul(a2, yy)
        triples.append((pair_mul(class0, xy),
                        pair_mul(ad, (a2xx[0] - da2 * yy[0], a2xx[1] - da2 * yy[1])),
                        pair_mul(ad, (a2yy[0] - da2 * xx[0], a2yy[1] - da2 * xx[1]))))
        cs.append(pair_mul(c_a, xy))
    return [triples[p] for p in cell_pairs], reduce(pair_mul, (cs[p] for p in cell_pairs), (1, 0))


def _run_pairs(steps, weights) -> tuple[int, int]:
    """The total over every central entry of a compiled transfer plan, in
    Z[zeta] on integer-pair weights: `_run_plan` run backward, from 1 at
    each closing profile, with the product inline.  Each position's value
    is the weighted sum over its own moves, so the moves grouped by source
    are read in order and no value is added into a target."""
    width = steps[-1][0] if steps else 1
    va, vb = [1] * width, [0] * width
    for (_, moves), w in zip(reversed(steps), reversed(weights)):
        na, nb = [], []
        for out in moves:
            a = b = 0
            for t, c in out:
                wa, wb = w[c]
                xa, xb = va[t], vb[t]
                a += xa * wa - xb * wb
                b += xa * wb + xb * (wa + wb)
            na.append(a)
            nb.append(b)
        va, vb = na, nb
    return va[0], vb[0]


def modified_multiplier(spec: ModelSpec) -> LaurentPoly:
    """Monomial clearing all negative spectral exponents of the state sum:
    (x_i y_i)^(order - 1) for i <= size, and (x_c y_c)^m for the central
    pair c = m + 1 of ht-odd."""
    return LaurentPoly.monomial(1, {f"{v}{i}": spec.order - 1 if i <= spec.size else spec.size
                                    for i in range(1, spec.x_count + 1) for v in "xy"})


def modified_partition(spec: ModelSpec,
                       max_states: Optional[int] = None) -> PartitionResult:
    """The state sum times the clearing monomial: an ordinary polynomial."""
    base = partition_function(spec, None, max_states)
    return PartitionResult(base.value * modified_multiplier(spec), spec,
                           base.state_count, "modified")


@lru_cache(maxsize=None)
def _z_ht2_value(m: int) -> LaurentPoly:
    return _symbolic_value("ht-even", m).exact_div(_symbolic_value("dwbc", m))


def z_ht2(m: int) -> PartitionResult:
    """The half-turn cofactor: Z_HT(2m) / Z(m), an exact Laurent quotient,
    with the state count of Z_HT(2m).

    NotDivisible coming out of here would mean the weight conventions have
    drifted; the factorization is exact by construction of the models.
    """
    spec = ModelSpec("ht-even", m)
    count = sum(state_counts(spec, DEFAULT_MAX_STATES).values())
    return PartitionResult(_z_ht2_value(m), spec, count)


def modified_z_ht2(m: int) -> LaurentPoly:
    """Cofactor of the modified functions: z_ht2(m) times the ht-even
    multiplier over the dwbc one, prod (x_i y_i)^m."""
    return z_ht2(m).value * (modified_multiplier(ModelSpec("ht-even", m))
                             * modified_multiplier(ModelSpec("dwbc", m)).monomial_inverse())


def z_split_odd(m: int) -> tuple[PartitionResult, PartitionResult]:
    """Split Z_HT(2m+1) by the central entry of the underlying matrices:
    the +1 part and the -1 part, each with its own state count, from one
    run of the compiled transfer plan that keeps the central entries apart.
    """
    spec = ModelSpec("ht-odd", m)
    counts = state_counts(spec, DEFAULT_MAX_STATES)
    steps, centrals, _ = _transfer_plan(spec.order, "ht")
    parts = _run_plan(steps, centrals, _symbolic_weights("ht-odd", m), LaurentPoly.const(1))
    return tuple(PartitionResult(parts.get(c, LaurentPoly.zero()), spec, counts.get(c, 0))
                 for c in (1, -1))


def fundamental_type_counts(m_asm: Asm, spec: ModelSpec) -> tuple[int, ...]:
    """How many fundamental-domain vertices have each type 1..6."""
    st = to_state(m_asm)
    counts = [0] * 7
    for i, j, _, _ in fundamental_cells(spec):
        counts[st[i, j]] += 1
    return tuple(counts[1:])
