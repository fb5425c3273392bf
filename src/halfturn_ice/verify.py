"""The identity-verification engine: named suites covering every identity,
recursion and enumeration formula in the package, producing machine-readable
reports with failure witnesses.

Each suite is deterministic given (params, seed).  Identities with
denominators are checked by cross-multiplication in the Laurent ring,
never by rational-function normalization; numeric checks run at seeded
random distinct rational points, exactly, in Q(zeta).  An ArithmeticError
in a suite (a quotient that does not divide, a non-integral closed form)
fails it with the error as witness; a ValueError (oversized input) escapes.
The censuses are read off the compiled plan (`icemodel.census`, what
`enumerate --census` prints); the tests check it against the listing.

Three typo-suspect readings are resolved empirically and recorded in the
report params: the final product in the odd central-minus formula is taken
at cofactor size 2m+2 (the printed 2m+1 names an object that only exists
at even sizes), the even-cofactor leading polynomial carries a minus sign
on its second term (the plus-sign variant is attempted first and the
passing sign recorded), and the refined cofactor formula carries a
factorial (both readings are tried against the census, and the one that
`formulas.HT2_READING` pins must be the only match).
"""

from __future__ import annotations

import itertools
import json
import math
import random
import time
from typing import Callable, Mapping, Optional

from . import determinant as det
from . import formulas
from . import icemodel as ice
from .asm import Asm, inversions, to_state
from .enum_asm import ht_permutations, inversion_genfunc
from .exactnum import Cyclo, ZETA, sigma
from .icemodel import census
from .laurent import LaurentPoly, sigma_of

DEFAULT_SEED = 42
SCHEMA_VERSION = 1
_WITNESS_CAP = 600


class UnknownSuite(KeyError):
    """Requested suite id is not in the catalog."""


class VerificationReport:
    """One suite's outcome; reports compare by their fields."""

    def __init__(self, suite_id: str, params: dict, seed: int, status: str,
                 checks_run: int, witness: Optional[dict], elapsed: float):
        self.suite_id = suite_id
        self.params = params
        self.seed = seed
        self.status = status
        self.checks_run = checks_run
        self.witness = witness
        self.elapsed = elapsed

    def __eq__(self, other: object) -> bool:
        if other.__class__ is self.__class__:
            return vars(self) == vars(other)
        return NotImplemented

    def __repr__(self) -> str:
        return f"VerificationReport({', '.join(f'{k}={v!r}' for k, v in vars(self).items())})"

    @property
    def passed(self) -> bool:
        return self.status == "pass"

    def to_json_obj(self, include_elapsed: bool = False) -> dict:
        obj = {
            "schemaVersion": SCHEMA_VERSION,
            "suiteId": self.suite_id,
            "params": self.params,
            "seed": self.seed,
            "status": self.status,
            "checksRun": self.checks_run,
            "witness": self.witness,
        }
        if include_elapsed:
            obj["elapsedSeconds"] = round(self.elapsed, 3)
        return obj

    def to_json(self, include_elapsed: bool = False) -> str:
        return json.dumps(self.to_json_obj(include_elapsed),
                          sort_keys=True, separators=(",", ":"))


class _Run:
    """Accumulates check results; keeps the first failure as a witness."""

    def __init__(self):
        self.checks = 0
        self.witness: Optional[dict] = None

    def check(self, name: str, lhs, rhs, **context):
        self.checks += 1
        if self.witness is None and lhs != rhs:
            self.witness = {
                "check": name,
                **{k: _clip(v) for k, v in context.items()},
                "lhs": _clip(lhs),
                "rhs": _clip(rhs),
            }

    def check_true(self, name: str, ok: bool, **context):
        self.checks += 1
        if self.witness is None and not ok:
            self.witness = {"check": name, **{k: _clip(v) for k, v in context.items()}}


def _clip(value) -> str:
    s = str(value)
    return s if len(s) <= _WITNESS_CAP else s[:_WITNESS_CAP] + "...<clipped>"


# ----------------------------------------------------------------------
# shared symbolic building blocks
# ----------------------------------------------------------------------

_ONE = LaurentPoly.const(1)
_A = LaurentPoly.var("a")


def _m(**exps) -> LaurentPoly:
    return LaurentPoly.monomial(1, exps)


def _siga(k: int) -> LaurentPoly:
    return sigma_of(_m(a=k))


def _Z(n: int) -> LaurentPoly:
    return ice.partition_function(ice.ModelSpec("dwbc", n)).value if n >= 1 else _ONE


def _Zht(order: int) -> LaurentPoly:
    return ice.partition_function(ice.class_model(order, "ht")).value


def _Z2(m: int) -> LaurentPoly:
    return ice.z_ht2(m).value if m >= 1 else _ONE


def _Zt(kind: str, size: int) -> LaurentPoly:
    if size == 0:
        return _ONE
    return ice.modified_partition(ice.ModelSpec(kind, size)).value


def _Z2t(m: int) -> LaurentPoly:
    return ice.modified_z_ht2(m) if m >= 1 else _ONE


_SIG_A2 = _siga(2)


def _sigma_xy(i: int, j: int) -> LaurentPoly:
    """sigma(a*y_j/x_i)."""
    return sigma_of(_m(a=1, **{f"x{i}": -1, f"y{j}": 1}))


def _modified_xy(i: int, j: int) -> LaurentPoly:
    """a*y_j^2 - x_i^2/a = x_i*y_j*sigma(a*y_j/x_i), the factor of the
    modified normalization."""
    return _A * _m(**{f"y{j}": 2}) - _m(a=-1, **{f"x{i}": 2})


def _pair_prod(factor: Callable[[int, int], LaurentPoly], k: int, others) -> LaurentPoly:
    """Product over i in others of factor(k, i) * factor(i, k): the factors
    a reduction at spectral pair k leaves between pair k and pair i."""
    p = _ONE
    for i in others:
        p = p * factor(k, i) * factor(i, k)
    return p


def _at_ax(p: LaurentPoly, k: int) -> LaurentPoly:
    """p at y_k = a*x_k."""
    return p.substitute({f"y{k}": _m(a=1, **{f"x{k}": 1})})


def _siga_prod(ks) -> LaurentPoly:
    """Product of sigma(a^k) over k in ks."""
    return math.prod(map(_siga, ks), start=_ONE)


def _sigma_prod(values) -> Cyclo:
    """Product of sigma(v) over v in values, in Q(zeta)."""
    return math.prod(map(sigma, values), start=Cyclo.of(1))


def _renamed(p: LaurentPoly, names: Mapping[str, str]) -> LaurentPoly:
    """p with its variables renamed all at once."""
    return p.substitute({v: LaurentPoly.var(w) for v, w in names.items()})


def _check_swaps(run: _Run, p: LaurentPoly, key: str, size: int):
    """p is symmetric under x_i <-> x_(i+1) and y_i <-> y_(i+1), i < size."""
    for i in range(1, size):
        for fam in ("x", "y"):
            swapped = _renamed(p, {f"{fam}{i}": f"{fam}{i + 1}",
                                   f"{fam}{i + 1}": f"{fam}{i}"})
            run.check(f"swap {fam}{i}<->{fam}{i + 1}, {key}={size}", swapped, p,
                      **{key: size})


def _spectral_degrees(p: LaurentPoly) -> set[int]:
    """Total degrees in the spectral variables only (a excluded)."""
    return p.total_degrees(skip=("a",))


def _perm_asm(s: tuple[int, ...]) -> Asm:
    n = len(s)
    rows = [[0] * n for _ in range(n)]
    for j, sj in enumerate(s):
        rows[sj - 1][j] = 1
    return Asm(tuple(tuple(r) for r in rows))


def _specialize_av(p: LaurentPoly, k: int) -> LaurentPoly:
    """x_i -> 1 (i <= k), y_1 -> v, remaining y_i -> 1."""
    ones = {f"{v}{i}": 1 for i in range(1, k + 1) for v in "xy"}
    return p.substitute(ones | {"y1": _m(v=1)})


def _assign_interleaved(u: tuple, size: int) -> dict:
    """x_i = u_(2i-1), y_i = u_(2i) plus a = zeta, for 2*size coordinates."""
    assign = {"a": ZETA}
    for i in range(size):
        assign[f"x{i + 1}"] = Cyclo.of(u[2 * i])
        assign[f"y{i + 1}"] = Cyclo.of(u[2 * i + 1])
    return assign


def _z_at(n: int, u: tuple) -> Cyclo:
    return ice.partition_function(ice.ModelSpec("dwbc", n), _assign_interleaved(u, n)).value


def _z2_at(m: int, u: tuple) -> Cyclo:
    """The cofactor Z_HT(2m)/Z(m) at a point, from two evaluated sums."""
    if m == 0:
        return Cyclo.of(1)
    zht = ice.partition_function(ice.ModelSpec("ht-even", m), _assign_interleaved(u, m)).value
    return zht / _z_at(m, u)


def _zodd_at(m: int, u: tuple) -> Cyclo:
    """Z_HT(2m+1) at a point of 2m+1 coordinates: interleaved pairs, the
    central pair x_(m+1) = y_(m+1) sharing the last coordinate."""
    assign = _assign_interleaved(u, m)
    assign[f"x{m + 1}"] = assign[f"y{m + 1}"] = Cyclo.of(u[2 * m])
    return ice.partition_function(ice.ModelSpec("ht-odd", m), assign).value


# ----------------------------------------------------------------------
# Yang-Baxter triangles
# ----------------------------------------------------------------------
#
# Each crossing stores its four edge ends in counterclockwise order (ends
# 0/2 on one line, 1/3 on the other) plus the spectral value of the wedge
# between ends 0 and 1; adjacent wedges carry inverse values.  Weight of an
# orientation: zero unless exactly two arrows point in; sigma(a^2) when
# both in-arrows lie on one line; otherwise sigma(a*w) with w the value of
# the wedge spanned by the two outgoing arrows.


def _crossing_table(w01: LaurentPoly) -> dict[int, LaurentPoly]:
    """The nonzero weights of one crossing, keyed by its in-arrow set as a
    bit mask over ends 0..3."""
    s01, s10 = sigma_of(_A * w01), sigma_of(_A * w01.monomial_inverse())
    # out-arrows {0, 1} and {2, 3} span wedges of value w01, {1, 2} and
    # {3, 0} wedges of value w01^-1
    return {0b0101: _SIG_A2, 0b1010: _SIG_A2,
            0b1100: s01, 0b0011: s01, 0b1001: s10, 0b0110: s10}


def _triangle_sum(crossings, boundary_bits: tuple[int, ...]) -> LaurentPoly:
    """Sum over the three internal edges' orientations of the product of
    the crossing weights; `crossings` holds (table, ends) with each end an
    (edge index, 1 if at the head) pair, the internal edges indexed after
    the six boundary edges."""
    total = LaurentPoly.zero()
    for internal_bits in itertools.product((0, 1), repeat=3):
        bits = boundary_bits + internal_bits
        w = _ONE
        for table, ends in crossings:
            cw = table.get(sum(1 << k for k, (e, head) in enumerate(ends) if bits[e] == head))
            if cw is None:
                break
            w = w * cw
        else:
            total = total + w
    return total


_BOUNDARY = ("lw", "uw", "ue", "le", "nn", "ss")


def _ybe_graphs(x: LaurentPoly, y: LaurentPoly, z: LaurentPoly):
    zb = z.monomial_inverse()
    left = [
        ([("zy", False), ("uw", True), ("lw", True), ("zx", False)], zb),
        ([("ue", True), ("nn", True), ("zy", True), ("yx", False)], y),
        ([("yx", True), ("zx", True), ("ss", True), ("le", True)], x),
    ]
    right = [
        ([("ue", True), ("zx2", False), ("zy2", False), ("le", True)], zb),
        ([("nn", True), ("uw", True), ("xy2", False), ("zx2", True)], x),
        ([("zy2", True), ("xy2", True), ("lw", True), ("ss", True)], y),
    ]
    return (left, ("zy", "zx", "yx")), (right, ("zx2", "zy2", "xy2"))


def ybe_components(x: LaurentPoly, y: LaurentPoly,
                   z: Optional[LaurentPoly] = None) -> dict:
    """Both triangle sums for all 64 boundary orientations."""
    if z is None:
        z = _A * x.monomial_inverse() * y.monomial_inverse()
    sides = []
    for graph, internal in _ybe_graphs(x, y, z):
        index = {e: k for k, e in enumerate(_BOUNDARY + internal)}
        sides.append([(_crossing_table(w01), tuple((index[e], int(head)) for e, head in ends))
                      for ends, w01 in graph])
    return {bits: (_triangle_sum(sides[0], bits), _triangle_sum(sides[1], bits))
            for bits in itertools.product((0, 1), repeat=6)}


# ----------------------------------------------------------------------
# suites
# ----------------------------------------------------------------------


def _suite_ybe(run: _Run, params: Mapping, rng: random.Random):
    x, y = _m(X=1), _m(Y=1)
    for bits, (lhs, rhs) in sorted(ybe_components(x, y).items()):
        run.check(f"symbolic component {bits}", lhs, rhs)
    # A generic wrong z must be detected.
    bad = sum(1 for lhs, rhs in ybe_components(x, y, z=x).values() if lhs != rhs)
    run.check_true("generic z violates some component", bad > 0, violations=bad)
    # Unit spectral parameters with z = a.
    for bits, (lhs, rhs) in sorted(ybe_components(_ONE, _ONE, z=_A).items()):
        run.check(f"unit component {bits}", lhs, rhs)


def _suite_dwbc_recursion(run: _Run, params: Mapping, rng: random.Random):
    for n in range(2, params["n_max"] + 1):
        rhs = _SIG_A2 * _pair_prod(_sigma_xy, n, range(1, n))
        run.check(f"plain recursion n={n}", _at_ax(_Z(n), n),
                  _at_ax(rhs, n) * _Z(n - 1), n=n)
        rhs_t = _SIG_A2 * _pair_prod(_modified_xy, n, range(1, n))
        run.check(f"modified recursion n={n}", _at_ax(_Zt("dwbc", n), n),
                  _at_ax(rhs_t, n) * _Zt("dwbc", n - 1), n=n)


def _suite_dwbc_symmetry(run: _Run, params: Mapping, rng: random.Random):
    for n in range(2, params["n_max"] + 1):
        zt = _Zt("dwbc", n)
        run.check(f"homogeneous of degree 2n(n-1), n={n}",
                  _spectral_degrees(zt), {2 * n * (n - 1)}, n=n)
        _check_swaps(run, zt, "n", n)
        for i in range(1, n + 1):
            run.check(f"degree in x{i}^2 is n-1, n={n}",
                      zt.degree_in(f"x{i}"), 2 * (n - 1), n=n)
            run.check(f"degree in y{i}^2 is n-1, n={n}",
                      zt.degree_in(f"y{i}"), 2 * (n - 1), n=n)


def _suite_leading_cs(run: _Run, params: Mapping, rng: random.Random):
    for n in range(1, params["n_max"] + 1):
        zt = _Zt("dwbc", n)
        c = zt.coeff_of({f"x{i}": 2 * (n - 1) for i in range(1, n + 1)})
        run.check(f"top coefficient n={n}", c,
                  _siga_prod(2 * i for i in range(1, n + 1)), n=n)
        s = zt.coeff_of({f"x{i}": 2 * (n - 1) for i in range(1, n)}
                        | {f"y{i}": 0 for i in range(1, n)})
        xn, yn = LaurentPoly.var(f"x{n}"), LaurentPoly.var(f"y{n}")
        s_want = _siga_prod(2 * i for i in range(1, n)) * (
            _siga(2 * n) * xn ** (2 * (n - 1))
            - _siga(2 * (n - 1)) * xn ** (2 * (n - 2)) * yn ** 2)
        run.check(f"subleading polynomial n={n}", s, s_want, n=n)


def _suite_lemma2_counts(run: _Run, params: Mapping, rng: random.Random):
    for n in range(1, params["n_max"] + 1):
        for s in itertools.permutations(range(1, n + 1)):
            counts = to_state(_perm_asm(s)).type_counts()
            inv = inversions(s)
            ok = (counts[2] == inv and counts[3] == inv
                  and counts[4] == n * (n - 1) // 2 - inv
                  and counts[5] == n * (n - 1) // 2 - inv)
            run.check_true(f"type counts for {s}", ok, counts=counts, inv=inv)


def _suite_lemma7_12_counts(run: _Run, params: Mapping, rng: random.Random):
    for order in range(2, params["order_max"] + 1):
        if order % 2:
            spec = ice.ModelSpec("ht-odd", (order - 1) // 2)
            m = (order - 1) // 2
            zeros = m * (2 * m + 1)
        else:
            spec = ice.ModelSpec("ht-even", order // 2)
            m = order // 2
            zeros = m * (2 * m - 1)
        for s in ht_permutations(order):
            counts = ice.fundamental_type_counts(_perm_asm(s), spec)
            inv = inversions(s)
            ok = (counts[2] + counts[3] == inv
                  and counts[4] + counts[5] == zeros - inv)
            run.check_true(f"fundamental counts order={order} {s}", ok,
                           counts=counts, inv=inv)


def _suite_genfunc(run: _Run, params: Mapping, rng: random.Random):
    for n in range(1, params["n_max"] + 1):
        run.check(f"plain class n={n}",
                  inversion_genfunc(n, "all", "brute"),
                  inversion_genfunc(n, "all", "closed"), n=n)
    for order in range(1, params["ht_order_max"] + 1):
        run.check(f"half-turn class order={order}",
                  inversion_genfunc(order, "ht", "brute"),
                  inversion_genfunc(order, "ht", "closed"), order=order)


def _suite_ht_even_recursion(run: _Run, params: Mapping, rng: random.Random):
    for m in range(1, params["m_max"] + 1):
        zt = _Zt("ht-even", m)
        run.check(f"homogeneous degree 2m(2m-1), m={m}",
                  _spectral_degrees(zt), {2 * m * (2 * m - 1)}, m=m)
        for i in range(1, m + 1):
            run.check(f"degree in x{i}^2 is 2m-1, m={m}",
                      zt.degree_in(f"x{i}"), 2 * (2 * m - 1), m=m)
        _check_swaps(run, zt, "m", m)
        rhs = (_SIG_A2 ** 2 * _m(**{f"x{m}": 1, f"y{m}": 1})
               * _pair_prod(_modified_xy, m, range(1, m)) ** 2)
        run.check(f"recursion at y{m} = a*x{m}, m={m}",
                  _at_ax(zt, m), _at_ax(rhs, m) * _Zt("ht-even", m - 1), m=m)


def _suite_ht_even_leading(run: _Run, params: Mapping, rng: random.Random):
    readings = set()
    for m in range(1, params["m_max"] + 1):
        zt = _Zt("ht-even", m)
        c = zt.coeff_of({f"x{i}": 2 * (2 * m - 1) for i in range(1, m + 1)})
        run.check(f"top coefficient m={m}", c, _siga_prod(range(1, 2 * m + 1)), m=m)

        z2t = _Z2t(m)
        c2 = z2t.coeff_of({f"x{i}": 2 * m for i in range(1, m + 1)})
        run.check(f"cofactor top coefficient m={m}", c2,
                  _siga_prod(2 * i - 1 for i in range(1, m + 1)), m=m)

        s2 = z2t.coeff_of({f"x{i}": 2 * m for i in range(1, m)}
                          | {f"y{i}": 0 for i in range(1, m)})
        pre = _siga_prod(2 * i - 1 for i in range(1, m))
        xm, ym = LaurentPoly.var(f"x{m}"), LaurentPoly.var(f"y{m}")
        candidates = {
            name: pre * (_siga(2 * m - 1) * xm ** (2 * m)
                         + sign * _siga(2 * m - 3) * xm ** (2 * (m - 1)) * ym ** 2)
            for sign, name in ((1, "plus"), (-1, "minus"))
        }
        matched = [name for name, cand in candidates.items() if cand == s2]
        run.check_true(f"cofactor subleading m={m} matches one sign reading",
                       len(matched) == 1, extracted=s2)
        readings.update(matched)

        s_ht = zt.coeff_of({f"x{i}": 2 * (2 * m - 1) for i in range(1, m)}
                           | {f"y{i}": 0 for i in range(1, m)})
        s_m = _Zt("dwbc", m).coeff_of({f"x{i}": 2 * (m - 1) for i in range(1, m)}
                                      | {f"y{i}": 0 for i in range(1, m)})
        run.check(f"subleading factorization m={m}", s_ht, s_m * s2, m=m)
    run.check_true("one sign reading fits all sizes", len(readings) == 1,
                   readings=sorted(readings))
    return {"cofactor_subleading_sign": sorted(readings)}


def _suite_factorization(run: _Run, params: Mapping, rng: random.Random):
    for m in range(1, params["m_max"] + 1):
        q = ice.z_ht2(m).value
        run.check(f"quotient times divisor m={m}", q * _Z(m), _Zht(2 * m), m=m)
        run.check(f"cofactor degree in y1^2 is m, m={m}",
                  _Z2t(m).degree_in("y1"), 2 * m, m=m)


def _suite_ht2_recursion(run: _Run, params: Mapping, rng: random.Random):
    for m in range(1, params["m_max"] + 1):
        z2t = _Z2t(m)
        run.check(f"homogeneous degree 2m^2, m={m}",
                  _spectral_degrees(z2t), {2 * m * m}, m=m)
        rhs = (_SIG_A2 * _m(**{f"x{m}": 1, f"y{m}": 1})
               * _pair_prod(_modified_xy, m, range(1, m)))
        run.check(f"cofactor recursion at y{m} = a*x{m}, m={m}",
                  _at_ax(z2t, m), _at_ax(rhs, m) * _Z2t(m - 1), m=m)


def _suite_ht_odd_recursion(run: _Run, params: Mapping, rng: random.Random):
    for m in range(1, params["m_max"] + 1):
        c = m + 1  # the central pair
        z = _Zht(2 * m + 1)
        zt = _Zt("ht-odd", m)
        _check_swaps(run, z, "m", m)
        run.check(f"homogeneous degree 2m(2m+1), m={m}",
                  _spectral_degrees(zt), {2 * m * (2 * m + 1)}, m=m)
        for i in range(1, m + 1):
            run.check(f"degree in x{i}^2 is 2m, m={m}",
                      zt.degree_in(f"x{i}"), 4 * m, m=m)
        run.check(f"degree in x{c} is 2m, m={m}", zt.degree_in(f"x{c}"), 2 * m, m=m)
        run.check(f"degree in y{c} is 2m, m={m}", zt.degree_in(f"y{c}"), 2 * m, m=m)

        # first-pair reduction: y1 = a*x1
        rhs = (_SIG_A2 ** 2 * _pair_prod(_sigma_xy, 1, [c])
               * _pair_prod(_sigma_xy, 1, range(2, m + 1)) ** 2)
        shift = ({f"x{i}": f"x{i + 1}" for i in range(1, c)}
                 | {f"y{i}": f"y{i + 1}" for i in range(1, c)})
        run.check(f"reduction at y1 = a*x1, m={m}", _at_ax(z, 1),
                  _at_ax(rhs, 1) * _renamed(_Zht(2 * m - 1), shift), m=m)

        # last-pair reduction of the modified function: y_m = a*x_m
        rhs_t = (_SIG_A2 ** 2 * _pair_prod(_modified_xy, m, [c])
                 * _m(**{f"x{m}": 1, f"y{m}": 1})
                 * _pair_prod(_modified_xy, m, range(1, m)) ** 2)
        if m >= 2:
            prev = _renamed(_Zt("ht-odd", m - 1), {f"x{m}": f"x{c}", f"y{m}": f"y{c}"})
        else:
            prev = _ONE  # order-1 modified function is 1
        run.check(f"modified reduction at y{m} = a*x{m}, m={m}",
                  _at_ax(zt, m), _at_ax(rhs_t, m) * prev, m=m)

        # central-pair reduction: y_c = a*x_c, plain and modified
        rhs_c = _pair_prod(_sigma_xy, c, range(1, c))
        run.check(f"reduction at y{c} = a*x{c}, m={m}",
                  _at_ax(z, c), _at_ax(rhs_c, c) * _Zht(2 * m), m=m)
        rhs_ct = _pair_prod(_modified_xy, c, range(1, c))
        run.check(f"modified reduction at y{c} = a*x{c}, m={m}",
                  _at_ax(zt, c), _at_ax(rhs_ct, c) * _Zt("ht-even", m), m=m)


def _suite_ht_odd_inversion(run: _Run, params: Mapping, rng: random.Random):
    for m in range(1, params["m_max"] + 1):
        z = _Zht(2 * m + 1)
        inverted = z.substitute({f"{v}{i}": _m(**{f"{v}{i}": -1})
                                 for i in range(1, m + 2) for v in "xy"})
        run.check(f"invariance under reciprocal variables, m={m}", inverted, z, m=m)


def _suite_ht_odd_leading(run: _Run, params: Mapping, rng: random.Random):
    for m in range(1, params["m_max"] + 1):
        zt = _Zt("ht-odd", m)
        c = zt.coeff_of({f"x{i}": 4 * m for i in range(1, m + 1)} | {f"x{m + 1}": 2 * m})
        run.check(f"top coefficient m={m}", c, _siga_prod(range(2, 2 * m + 2)), m=m)
        s = zt.coeff_of({f"x{i}": 4 * m for i in range(1, m + 1)}
                        | {f"y{i}": 0 for i in range(1, m + 1)})
        xc = LaurentPoly.var(f"x{m + 1}")
        yc = LaurentPoly.var(f"y{m + 1}")
        s_want = _siga_prod(range(2, 2 * m + 1)) * (
            _siga(2 * m + 1) * xc ** (2 * m) - _siga(2 * m) * xc ** (2 * m - 1) * yc)
        run.check(f"central subleading polynomial m={m}", s, s_want, m=m)


def _suite_theorem1(run: _Run, params: Mapping, rng: random.Random):
    for m in range(0, params["m_max"] + 1):
        c = m + 1
        xc, yc = LaurentPoly.var(f"x{c}"), LaurentPoly.var(f"y{c}")
        lhs = _Zht(2 * m + 1) * sigma_of(_A) * (_A * xc + yc) * (_A * yc + xc)
        rhs = _A * xc * yc * (_Z(m + 1) * _Z2(m) + _Z(m) * _Z2(m + 1))
        run.check(f"cross-multiplied identity m={m}", lhs, rhs, m=m)


def _suite_theorem2(run: _Run, params: Mapping, rng: random.Random):
    for m in range(0, params["m_max"] + 1):
        c = m + 1
        plus, minus = (part.value for part in ice.z_split_odd(m))
        # The +1 part carries (-1)^m under a -> -a and the -1 part
        # (-1)^(m+1): with the total, this fixes both parts.
        z = _Zht(2 * m + 1)
        run.check(f"split total == listed-state total, m={m}", plus + minus, z, m=m)
        run.check(f"(-1)^m split difference == total at a -> -a, m={m}",
                  plus - minus if m % 2 == 0 else minus - plus, z.substitute({"a": -_A}), m=m)
        w = _m(**{f"x{c}": 1, f"y{c}": -1})
        denom = sigma_of(_A) * sigma_of(_A * w) * sigma_of(_A * w.monomial_inverse())
        aa = _A + _A.monomial_inverse()
        ww = w + w.monomial_inverse()
        rhs_plus = aa * _Z(m + 1) * _Z2(m) - ww * _Z(m) * _Z2(m + 1)
        rhs_minus = -ww * _Z(m + 1) * _Z2(m) + aa * _Z(m) * _Z2(m + 1)
        run.check(f"central +1 part, m={m}", plus * denom, rhs_plus, m=m)
        run.check(f"central -1 part (cofactor size 2m+2), m={m}", minus * denom, rhs_minus, m=m)
    return {"eq25_reading": "2m+2",
            "eq25_literal": "inapplicable: no odd-size cofactor exists"}


def _suite_theorem3(run: _Run, params: Mapping, rng: random.Random):
    for m in range(0, params["m_max"] + 1):
        for _ in range(params["points"]):
            u = det.random_distinct_rationals(rng, 2 * m + 1)
            run.check(f"determinant == interleaved state sum, m={m}",
                      det.special_z("ht-odd", m, u), _zodd_at(m, u), m=m, u=[str(f) for f in u])


def _suite_parity(run: _Run, params: Mapping, rng: random.Random):
    for n in range(1, params["n_max"] + 1):
        z = _Z(n)
        run.check(f"plain sum is even in a, n={n}", z.substitute({"a": -_A}), z, n=n)
    for m in range(1, params["m_max"] + 1):
        zht = _Zht(2 * m)
        want = zht if m % 2 == 0 else -zht
        run.check(f"half-turn sum picks up (-1)^m, m={m}", zht.substitute({"a": -_A}), want, m=m)
        z2 = _Z2(m)
        want2 = z2 if m % 2 == 0 else -z2
        run.check(f"cofactor picks up (-1)^m, m={m}", z2.substitute({"a": -_A}), want2, m=m)


def _suite_special_recursion(run: _Run, params: Mapping, rng: random.Random):
    a = ZETA

    def reduction(val, size, label):
        for _ in range(params["points"]):
            u = [Cyclo.of(f) for f in det.random_distinct_rationals(rng, 2 * size - 1)]
            u.append(a * u[-1])
            pref = sigma(a) * _sigma_prod(a * x / u[-2] for x in u[:-2])
            run.check(f"{label} size={size}", val(size, tuple(u)),
                      pref * val(size - 1, tuple(u[:-2])),
                      size=size, u=[str(x) for x in u])

    for n in range(2, params["n_max"] + 1):
        reduction(_z_at, n, "plain sum at u_2n = a*u_(2n-1)")
    for m in range(1, params["m_max"] + 1):
        reduction(_z2_at, m, "cofactor at u_2m = a*u_(2m-1)")


def _suite_three_term(run: _Run, params: Mapping, rng: random.Random):
    a2 = ZETA * ZETA

    def cyclic_sum(val, size, u, mu):
        def prod_sig(shift):
            return _sigma_prod(x / (shift * u[mu]) for nu, x in enumerate(u) if nu != mu)
        shift_up = tuple(x if i != mu else a2 * x for i, x in enumerate(u))
        shift_dn = tuple(x if i != mu else x / a2 for i, x in enumerate(u))
        return (val(size, u) * prod_sig(Cyclo.of(1))
                + val(size, shift_up) * prod_sig(a2)
                + val(size, shift_dn) * prod_sig(a2.inverse()))

    for label, val, size_max in (("plain sum", _z_at, params["n_max"]),
                                 ("cofactor", _z2_at, params["m_max"])):
        for size in range(1, size_max + 1):
            for mu in range(2 * size):
                for _ in range(params["points"]):
                    u = tuple(Cyclo.of(f)
                              for f in det.random_distinct_rationals(rng, 2 * size))
                    s = cyclic_sum(val, size, u, mu)
                    run.check(f"{label} three-term size={size} mu={mu + 1}",
                              s, Cyclo.of(0), u=[str(x) for x in u])


def _suite_det_oracle(run: _Run, params: Mapping, rng: random.Random):
    for n in range(1, params["n_max"] + 1):
        for _ in range(params["points"]):
            u = det.random_distinct_rationals(rng, 2 * n)
            run.check(f"plain determinant n={n}", det.special_z("dwbc", n, u),
                      _z_at(n, tuple(Cyclo.of(f) for f in u)),
                      n=n, u=[str(f) for f in u])
    for m in range(1, params["m_max"] + 1):
        for _ in range(params["points"]):
            u = det.random_distinct_rationals(rng, 2 * m)
            run.check(f"cofactor determinant m={m}", det.special_z("ht2", m, u),
                      _z2_at(m, tuple(Cyclo.of(f) for f in u)),
                      m=m, u=[str(f) for f in u])
    # At a = zeta the state sums are symmetric in all their coordinates
    # (Stroganov), which is why `special_z` can be a Schur function.  At
    # every a they are symmetric in the x's and in the y's apart, so a drawn
    # transposition within one family is turned into one across the two
    # (the central coordinate of ht-odd belongs to both).
    for model, at, size, dim in (("dwbc", _z_at, 2, 4), ("ht2", _z2_at, 2, 4),
                                 ("ht-odd", _zodd_at, 2, 5)):
        u = list(det.random_distinct_rationals(rng, dim))
        base = at(size, tuple(u))
        i, j = rng.sample(range(dim), 2)
        if (i - j) % 2 == 0 and max(i, j) < 2 * size:
            j ^= 1
        u[i], u[j] = u[j], u[i]
        run.check(f"u-permutation invariance of the state sum, {model}",
                  at(size, tuple(u)), base, swapped=(i, j))


def _wronskian(m: int, u: tuple) -> Cyclo:
    """Z(lo) Z2(hi) - Z2(lo) Z(hi) for m >= 1, with the last coordinate
    shifted by a^-2 and a^2, from one Z(m) and one Z_HT(2m) per point."""
    a2 = ZETA * ZETA
    z, zht = [], []
    for v in (u[:-1] + (u[-1] / a2,), u[:-1] + (a2 * u[-1],)):
        assign = _assign_interleaved(v, m)
        z.append(ice.partition_function(ice.ModelSpec("dwbc", m), assign).value)
        zht.append(ice.partition_function(ice.ModelSpec("ht-even", m), assign).value)
    return z[0] * zht[1] / z[1] - zht[0] / z[0] * z[1]


def _suite_wronskian(run: _Run, params: Mapping, rng: random.Random):
    a2 = ZETA * ZETA

    def den(u, shift=Cyclo.of(1)):
        return _sigma_prod(x / (shift * u[-1]) for x in u[:-1])

    for m in range(1, params["m_max"] + 1):
        for _ in range(params["points"]):
            u = tuple(Cyclo.of(f) for f in det.random_distinct_rationals(rng, 2 * m))
            shifted = u[:-1] + (a2 * u[-1],)
            run.check(f"shift covariance m={m}",
                      _wronskian(m, u) * den(u, a2),
                      _wronskian(m, shifted) * den(u), m=m, u=[str(x) for x in u])
        for _ in range(params["points"]):
            pts = det.random_distinct_rationals(rng, 2 * m + 1)
            u1 = tuple(Cyclo.of(f) for f in pts[:2 * m])
            u2 = u1[:-1] + (Cyclo.of(pts[2 * m]),)
            run.check(f"last-coordinate factorization m={m}",
                      _wronskian(m, u1) / den(u1), _wronskian(m, u2) / den(u2),
                      m=m, u=[str(x) for x in u1])


def _suite_counts_closed(run: _Run, params: Mapping, rng: random.Random):
    # State counts of the compiled transfer plans; the brute census totals
    # are pinned in the tier-1 tests.
    def counts(kind, size):
        return ice.state_counts(ice.ModelSpec(kind, size))

    for n in range(1, 7):
        run.check(f"plain count n={n}", sum(counts("dwbc", n).values()),
                  formulas.count_asm(n), n=n)
    for order in (2, 4, 6):
        run.check(f"half-turn count order={order}", sum(counts("ht-even", order // 2).values()),
                  formulas.count_ht_even(order), order=order)
    for order in (1, 3, 5, 7):
        run.check(f"half-turn count order={order}", sum(counts("ht-odd", order // 2).values()),
                  formulas.count_ht_odd(order), order=order)
    for order in (3, 5, 7):
        split = counts("ht-odd", order // 2)
        run.check(f"central +1 count order={order}", split[1],
                  formulas.count_closed("ht-odd-plus", order), order=order)
        run.check(f"central -1 count order={order}", split[-1],
                  formulas.count_closed("ht-odd-minus", order), order=order)


def _genfunc_at_x1(order: int, klass: str) -> LaurentPoly:
    return census(order, klass).genfunc().substitute({"x": 1, "sqrtx": 1})


def _refined_pair(m: int) -> tuple[LaurentPoly, LaurentPoly]:
    """(A(m; t, x), the cofactor A_HT(2m; t, x)/A(m; t, x)) off the census."""
    amx = census(m, "all").genfunc()
    return amx, census(2 * m, "ht").genfunc().exact_div(amx)


def _suite_refined_1(run: _Run, params: Mapping, rng: random.Random):
    cofactors = {m: _genfunc_at_x1(2 * m, "ht").exact_div(_genfunc_at_x1(m, "all"))
                 for m in (2, 3)}
    matched = [reading for reading in ("factorial", "plain")
               if formulas._refined_ht2_formula(2, reading) == cofactors[2]]
    reading = matched[0] if len(matched) == 1 else None
    run.check_true("one factorial reading matches the census",
                   reading == formulas.HT2_READING, readings=matched)
    for n in (3, 4):
        closed = formulas.refined_asm_closed(n)
        tab = census(n, "all")
        for r in range(1, n + 1):
            want = closed.coeff_of({"t": r - 1}).constant_value()
            got = tab.rows[(r, None)].substitute({"x": 1}).constant_value()
            run.check(f"refined count n={n} r={r}", got, want, n=n, r=r)
    for m, quotient in cofactors.items():
        run.check(f"cofactor refined polynomial m={m}",
                  formulas.refined_ht2_closed(m), quotient, m=m)
    run.check("documented base case m=1",
              formulas.refined_ht2_closed(1),
              LaurentPoly(("t",), {(0,): 1, (1,): 1}))
    return {"ht2_reading": reading}


def _genfunc_av_pair(order: int, klass: str, weight_sub: LaurentPoly,
                     s_av: LaurentPoly, s_avb: LaurentPoly):
    """Census generating function as an (a, v) Laurent pair
    (numerator, sigma(a*v)^(order-1))."""
    tab = census(order, klass)
    num = LaurentPoly.zero()
    for (r, _), poly in tab.rows.items():
        p = poly.substitute_poly(tab.weight_var, weight_sub)
        num = num + p * s_avb ** (r - 1) * s_av ** (order - r)
    return num, s_av ** (order - 1)


def _suite_xenum(run: _Run, params: Mapping, rng: random.Random):
    a = _A
    x_of_a, (s_avb, s_av) = formulas.xenum_map()
    sqrtx_of_a = LaurentPoly(("a",), {(1,): 1, (-1,): 1})

    def zspec(kind, size):
        spec = ice.ModelSpec(kind, size)
        return _specialize_av(ice.partition_function(spec).value, spec.x_count)

    def a_pair(n):
        return _genfunc_av_pair(n, "all", x_of_a, s_av, s_avb)

    def a2_pair(m):
        z2 = _specialize_av(ice.z_ht2(m).value, m)
        return z2, sigma_of(a) ** (m * m - m) * s_av ** m

    # plain class: census == normalized spectral sum (denominators cancel)
    for n in range(1, params["n_max"] + 1):
        num, _ = a_pair(n)
        run.check(f"plain class change of variables n={n}",
                  num * sigma_of(a) ** (n * n - 2 * n + 1) * _SIG_A2 ** n,
                  zspec("dwbc", n), n=n)

    # cofactor: census ratio == normalized cofactor
    for m in range(1, params["m_max"] + 1):
        ht_num, ht_den = _genfunc_av_pair(2 * m, "ht", x_of_a, s_av, s_avb)
        am_num, am_den = a_pair(m)
        z2_num, z2_den = a2_pair(m)
        run.check(f"cofactor change of variables m={m}",
                  ht_num * am_den * z2_den, am_num * z2_num * ht_den, m=m)

    # odd class: census == normalized odd sum (denominators cancel)
    for m in range(1, params["m_max"] + 1):
        order = 2 * m + 1
        num, _ = _genfunc_av_pair(order, "ht", sqrtx_of_a, s_av, s_avb)
        run.check(f"odd class change of variables m={m}",
                  num * sigma_of(a) ** (2 * m * m - m) * _SIG_A2 ** m,
                  zspec("ht-odd", m), m=m)

    # three-census recursion with sqrt(x) + 2 denominators
    for m in range(1, params["m_max"] + 1):
        lhs_num, lhs_den = _genfunc_av_pair(2 * m + 1, "ht", sqrtx_of_a, s_av, s_avb)
        am1_num, am1_den = a_pair(m + 1)
        am_num, am_den = a_pair(m)
        h2m_num, h2m_den = a2_pair(m)
        h2m2_num, h2m2_den = a2_pair(m + 1)
        rhs_num = (sqrtx_of_a * am1_num * h2m_num * am_den * h2m2_den
                   + am_num * h2m2_num * am1_den * h2m_den)
        rhs_den = am1_den * h2m_den * am_den * h2m2_den
        run.check(f"odd class three-factor recursion m={m}",
                  lhs_num * (sqrtx_of_a + 2) * rhs_den, rhs_num * lhs_den, m=m)


def _orbit_weighted(tab) -> LaurentPoly:
    """An odd half-turn census in (t, x), each matrix weighted by x once per
    half-turn orbit of its -1 entries: sqrtx^k -> x^ceil(k/2), as the
    central entry is an orbit of its own."""
    total = LaurentPoly.zero()
    for (r, _), poly in tab.ordered_rows():
        for e, c in poly.tuple_terms().items():
            k = e[0] if e else 0  # a constant row has no sqrtx
            total = total + LaurentPoly.monomial(c, {"t": r - 1, "x": (k + 1) // 2})
    return total


def _suite_refined_split(run: _Run, params: Mapping, rng: random.Random):
    for order in params["orders"]:
        m = (order - 1) // 2
        plus, minus, robbins = formulas.refined_ht_odd(m)
        cplus, cminus = (p.substitute({"x": 1}) for p in census(order, "ht").split_by_center())
        run.check(f"central +1 refined order={order}", plus, cplus, order=order)
        run.check(f"central -1 refined order={order}", minus, cminus, order=order)
        run.check(f"orbit-weighted column order={order}", robbins,
                  _genfunc_at_x1(order, "ht"), order=order)
        run.check(f"split totals order={order}",
                  tuple(p.substitute({"t": 1}).constant_value() for p in (plus, minus)),
                  (formulas.count_closed("ht-odd-plus", order),
                   formulas.count_closed("ht-odd-minus", order)), order=order)
    # fully symbolic split at the smallest size
    plus, minus, robbins = formulas.central_split(*_refined_pair(1), *_refined_pair(2),
                                                  LaurentPoly.var("x"))
    tab = census(3, "ht")
    cplus, cminus = tab.split_by_center()
    run.check("symbolic central +1 split m=1", plus, cplus)
    run.check("symbolic central -1 split m=1", minus, cminus)
    run.check("symbolic orbit-weighted m=1", robbins, _orbit_weighted(tab))


def _suite_four_enum(run: _Run, params: Mapping, rng: random.Random):
    for m in range(1, params["m_max"] + 1):
        a_m4 = census(m, "all").genfunc().substitute({"x": 4})
        ht_4 = census(2 * m, "ht").genfunc().substitute({"x": 4})
        run.check(f"4-enumeration m={m}", formulas.four_enum_identity(m, a_m4), ht_4, m=m)


# ----------------------------------------------------------------------
# catalog
# ----------------------------------------------------------------------

SuiteFn = Callable[[_Run, Mapping, random.Random], Optional[dict]]

SUITES: dict[str, tuple[SuiteFn, dict]] = {
    "ybe": (_suite_ybe, {}),
    "dwbc-recursion": (_suite_dwbc_recursion, {"n_max": 4}),
    "dwbc-symmetry": (_suite_dwbc_symmetry, {"n_max": 4}),
    "leading-C-S": (_suite_leading_cs, {"n_max": 3}),
    "lemma2-counts": (_suite_lemma2_counts, {"n_max": 5}),
    "lemma7-12-counts": (_suite_lemma7_12_counts, {"order_max": 7}),
    "genfunc": (_suite_genfunc, {"n_max": 7, "ht_order_max": 8}),
    "ht-even-recursion": (_suite_ht_even_recursion, {"m_max": 2}),
    "ht-even-leading": (_suite_ht_even_leading, {"m_max": 2}),
    "factorization": (_suite_factorization, {"m_max": 2}),
    "ht2-recursion": (_suite_ht2_recursion, {"m_max": 2}),
    "ht-odd-recursion": (_suite_ht_odd_recursion, {"m_max": 2}),
    "ht-odd-inversion": (_suite_ht_odd_inversion, {"m_max": 2}),
    "ht-odd-leading": (_suite_ht_odd_leading, {"m_max": 2}),
    "theorem1": (_suite_theorem1, {"m_max": 2}),
    "theorem2": (_suite_theorem2, {"m_max": 2}),
    "theorem3": (_suite_theorem3, {"m_max": 2, "points": 20}),
    "parity": (_suite_parity, {"n_max": 3, "m_max": 2}),
    "special-recursion": (_suite_special_recursion, {"n_max": 4, "m_max": 2, "points": 10}),
    "three-term": (_suite_three_term, {"n_max": 2, "m_max": 2, "points": 10}),
    "det-oracle": (_suite_det_oracle, {"n_max": 3, "m_max": 2, "points": 20}),
    "wronskian": (_suite_wronskian, {"m_max": 2, "points": 10}),
    "counts-closed": (_suite_counts_closed, {}),
    "refined-1": (_suite_refined_1, {}),
    "xenum": (_suite_xenum, {"n_max": 4, "m_max": 2}),
    "refined-split": (_suite_refined_split, {"orders": [3, 5, 7]}),
    "four-enum": (_suite_four_enum, {"m_max": 3}),
}


def run_suite(suite_id: str, params: Optional[Mapping] = None,
              seed: int = DEFAULT_SEED) -> VerificationReport:
    """Execute one suite; deterministic given (params, seed)."""
    if suite_id not in SUITES:
        raise UnknownSuite(suite_id)
    fn, defaults = SUITES[suite_id]
    merged = dict(defaults)
    if params:
        merged.update(params)
    rng = random.Random(seed)
    run = _Run()
    t0 = time.perf_counter()
    try:
        extra = fn(run, merged, rng)
    except OverflowError:
        raise
    except ArithmeticError as exc:  # a division that does not go, a non-integral form
        extra = None
        run.check_true("suite raised", False, error=f"{type(exc).__name__}: {exc}")
    elapsed = time.perf_counter() - t0
    if extra:
        merged.update(extra)
    if not run.checks:
        run.witness = {"check": "no checks ran"}
    status = "pass" if run.witness is None else "fail"
    return VerificationReport(suite_id, merged, seed, status, run.checks,
                              run.witness, elapsed)


def run_all(seed: int = DEFAULT_SEED,
            overrides: Optional[Mapping[str, Mapping]] = None) -> list[VerificationReport]:
    """Run the whole catalog in its canonical order."""
    reports = []
    for suite_id in SUITES:
        reports.append(run_suite(suite_id, (overrides or {}).get(suite_id), seed))
    return reports
