"""Case classification for four-prime discriminants and tower-length verdicts.

A real quadratic field whose discriminant splits into four prime
discriminants, is not a sum of two squares, and has 2-class group (2,2)
falls into one of four sign types and, within the type, one of finitely
many Kronecker-symbol rows.  The rows, their Galois-type sets, their
order-32/64 quotient labels, and the per-case unit/class-number invariant
patterns ship in case_tables.json; this module searches the factor
assignment, recomputes every symbol, and never copies a computed quantity
out of the table.  The search runs once per symbol signature (factor signs
and character matrix); classify memoises its outcome.
"""

from __future__ import annotations

import functools
import json
from dataclasses import dataclass
from enum import Enum
from importlib import resources
from itertools import permutations
import re
from typing import Iterator, Sequence

from .arith import (
    NotFundamentalError,
    Sieved,
    discriminant_of,
    factor_discriminant,
    prime_of,
    radicand,
    sieve_factors,
    squarefree_kernel,
)
from .qform import character_matrix, narrow_four_rank, two_class_number
# neither is called here; bench/spans.py hooks both names on this module
from .arith import is_sum_of_two_squares  # noqa: F401
from .qform import class_group  # noqa: F401
from .units import (
    CharacterTable,
    delta_invariant,
    fundamental_unit,
    kubota_index,
    multiquadratic_h2,
)

__all__ = [
    "CaseRecord",
    "Verdict",
    "TowerVerdict",
    "RowEntry",
    "InvariantRowReport",
    "PreconditionError",
    "NoRowMatchError",
    "InternalConsistencyError",
    "RowPatternsUnavailableError",
    "RowComputationError",
    "classify",
    "tower_verdict",
    "verify_invariant_row",
    "family_member",
    "iter_family",
    "SCAN_BLOCK",
    "load_tables",
]


class PreconditionError(ValueError):
    """The discriminant is outside the classified family."""


class NoRowMatchError(LookupError):
    """No table row matches any admissible factor assignment."""


class InternalConsistencyError(RuntimeError):
    """Several distinct rows matched; the tables should make this impossible."""


class RowPatternsUnavailableError(LookupError):
    """The classified case has no encoded invariant-row patterns."""


class RowComputationError(RuntimeError):
    """A sub-computation needed for a row column of d failed."""

    def __init__(self, d: int, column: str, cause: Exception):
        self.d = d
        self.column = column
        self.cause = cause
        super().__init__(f"d = {d}, column {column}: {cause}")

    def __reduce__(self):  # a scan worker process sends it back pickled
        return type(self), (self.d, self.column, self.cause)


def load_tables() -> dict:
    text = resources.files("quadtower").joinpath("case_tables.json").read_text()
    return json.loads(text)


_TABLES = load_tables()

_NU_PAIRS = ((1, 2), (1, 3), (2, 3), (1, 4), (2, 4), (3, 4))


class Verdict(str, Enum):
    EXACTLY_2 = "Exactly2"
    AT_LEAST_3 = "AtLeast3"
    UNKNOWN_64_150 = "Unknown64_150"
    EXACTLY_2_BY_8RANK = "Exactly2_By8Rank"


@dataclass(frozen=True)
class TowerVerdict:
    verdict: Verdict
    justification: str


@dataclass(frozen=True)
class CaseRecord:
    d: int
    case_type: str
    label: str
    assignment: tuple[int, int, int, int]
    symbol_matrix: tuple[int, int, int, int, int, int]
    g_type: frozenset[str]
    gplus_label: str
    g_order_formula: str | None

    @property
    def primes(self) -> tuple[int, int, int, int]:
        return tuple(prime_of(q) for q in self.assignment)


def _symbol(mat, at: Sequence[int], top: str, under: str) -> int:
    """(d_i / p_j) for top 'di' and under 'pj', where d_k is the factor at
    position at[k - 1] and mat is the factors' character matrix."""
    return mat[at[int(top[1]) - 1]][at[int(under[1]) - 1]]


def _candidate_assignments(
    table: dict, factors: Sequence[int]
) -> Iterator[tuple[int, ...]]:
    """The orderings of the factors, as factor positions, that fit a type:
    d_i has the sign signs[i], d4 is the table's d4 if it names one, and
    otherwise -4 is a factor only if allow_minus4."""
    signs, d4 = table["signs"], table.get("d4")
    if d4 is None and -4 in factors and not table["allow_minus4"]:
        return
    factor_signs = [1 if q > 0 else -1 for q in factors]
    if sorted(factor_signs) != sorted(signs):
        return
    for at in permutations(range(len(factors))):
        if [factor_signs[i] for i in at] == signs and d4 in (None, factors[at[3]]):
            yield at


def _matches(table: dict, mat, at: Sequence[int]) -> str | None:
    for top, under, want in table.get("fixed", ()):
        if _symbol(mat, at, top, under) != want:
            return None
    symbols = [_symbol(mat, at, top, under) for top, under in table["columns"]]
    for label, row in table["rows"].items():
        if row["symbols"] == symbols:
            return label
    return None


@dataclass(frozen=True)
class _Row:
    """The row a signature hits: everything of a CaseRecord but d, with the
    assignment as factor positions."""

    case_type: str
    label: str
    at: tuple[int, ...]
    nu: tuple[int, int, int, int, int, int]
    g_type: frozenset[str]
    gplus_label: str
    g_order_formula: str | None


def _signature(factors: Sequence[int], mat) -> tuple:
    """Each factor's class (-4, positive or negative), then the character
    matrix by rows: all that the Redei test and the row search read."""
    classes = [-4 if q == -4 else q > 0 for q in factors]
    return (*classes, *mat[0], *mat[1], *mat[2], *mat[3])


def _search(factors: Sequence[int], mat) -> _Row | int | tuple[str, ...] | None:
    """What classify concludes from the factors' signature: the narrow
    4-rank when it is not 0, else the row hit (None for no row, the sorted
    labels when several rows match).

    Searches every factor permutation permitted by the four type
    constraints; among assignments hitting the same row the
    lexicographically smallest (|d1|,|d2|,|d3|,|d4|) wins.  The factors are
    sorted by distinct |q|, so that is the smallest tuple of positions.
    """
    # with 4 factors and N(eps) = +1 the narrow 2-rank is 3, so Cl2 = (2, 2)
    # exactly when the narrow 4-rank is 0 (Redei)
    four_rank = narrow_four_rank(mat)
    if four_rank:
        return four_rank
    hits: list[tuple[str, str, tuple[int, ...]]] = []
    for type_name, table in _TABLES["types"].items():
        for at in _candidate_assignments(table, factors):
            label = _matches(table, mat, at)
            if label is not None:
                hits.append((type_name, label, at))
    if not hits:
        return None
    labels = sorted({label for _, label, _ in hits})
    if len(labels) > 1:
        return tuple(labels)
    type_name, label, at = min(hits, key=lambda h: h[2])
    nu = tuple(
        0 if _symbol(mat, at, f"d{i}", f"p{j}") == 1 else 1
        for i, j in _NU_PAIRS
    )
    row = _TABLES["types"][type_name]["rows"][label]
    patterns = _TABLES["invariant_rows"].get(label)
    return _Row(
        case_type=type_name,
        label=label,
        at=at,
        nu=nu,
        g_type=frozenset(row["g"]),
        gplus_label=row["gplus"],
        g_order_formula=_display(patterns["order"]) if patterns else None,
    )


# signature -> _search of it, filled on first sight; see classify
_BY_SIGNATURE: dict[tuple, _Row | int | tuple[str, ...] | None] = {}


def classify(d: int, sieved: Sieved | None = None) -> CaseRecord:
    """Find the unique case row for the discriminant d.

    d is factored once into prime discriminants, sorted by |q|, and their
    `character_matrix` is built once.  Past the factor checks, the Redei
    4-rank test and the row search depend only on the signature: each
    factor's class (-4, positive or negative) and the matrix.  Each
    signature's outcome is memoised in `_BY_SIGNATURE`, which only the
    permutation search `_search` fills, on its first sight; later
    candidates with that signature cost one dict lookup.  A signature is
    four classes and sixteen signs, most of them tied by quadratic
    reciprocity, and sorting by |q| lets an even factor follow only -3, 5
    and -7, so the memo stays small (at most 768 entries) without an
    eviction rule.  `sieved`, the entry of d from `arith.sieve_factors`,
    spares factoring d again.
    """
    if d <= 0:
        raise PreconditionError(f"{d} is not positive")
    try:
        factors = factor_discriminant(d, sieved=sieved)
    except NotFundamentalError as e:
        raise PreconditionError(str(e)) from None
    if len(factors) != 4:
        raise PreconditionError(
            f"{d} has {len(factors)} prime discriminant factors, need 4"
        )
    # d > 0 is a sum of two squares iff no prime p = 3 mod 4 divides it to an
    # odd power; in a fundamental d such a p is the negative factor -p, and a
    # -4 or -8 never comes alone, as the negative factors of d > 0 pair up
    if all(q > 0 for q in factors):
        raise PreconditionError(f"{d} is a sum of two squares")
    # every symbol below is read off this one matrix, by factor position
    mat = character_matrix(factors)
    key = _signature(factors, mat)
    try:
        found = _BY_SIGNATURE[key]
    except KeyError:
        found = _BY_SIGNATURE[key] = _search(factors, mat)
    if isinstance(found, _Row):
        return CaseRecord(
            d=d,
            case_type=found.case_type,
            label=found.label,
            assignment=tuple(factors[i] for i in found.at),
            symbol_matrix=found.nu,
            g_type=found.g_type,
            gplus_label=found.gplus_label,
            g_order_formula=found.g_order_formula,
        )
    if isinstance(found, int):
        raise PreconditionError(
            f"2-class group of {d} is not (2, 2): its narrow 4-rank is "
            f"{found}, need 0"
        )
    if found is None:
        raise NoRowMatchError(
            f"{d} = {'*'.join(map(str, factors))} matches no classification row"
        )
    raise InternalConsistencyError(f"{d} matches several rows: {list(found)}")


def tower_verdict(
    rec: CaseRecord, external_octic_cl2: Sequence[int] | None = None
) -> TowerVerdict:
    """Tower-length verdict from the quotient label and optional octic data.

    The partition of labels is a regression-locked constant: order-32
    quotients other than 32.033 terminate the tower at length 2; 32.033 and
    the order-64 quotients except 64.150 force length >= 3; 64.150 is
    undecided unless the supplied Cl2 structure of the octic step has
    8-rank 0.  Supplied invariants are checked whatever the quotient.
    """
    structure = None if external_octic_cl2 is None else tuple(external_octic_cl2)
    if structure is not None and any(n < 1 for n in structure):
        raise ValueError(f"invalid abelian invariants {structure}")
    name = _TABLES["verdicts"][rec.gplus_label]
    if name == "Exactly2":
        return TowerVerdict(
            Verdict.EXACTLY_2,
            f"quotient {rec.gplus_label} has order 32 and is not 32.033, "
            "so the narrow tower stops at length 2",
        )
    if name == "AtLeast3":
        return TowerVerdict(
            Verdict.AT_LEAST_3,
            f"quotient {rec.gplus_label} forces narrow tower length >= 3",
        )
    if structure is not None:
        eight_rank = sum(1 for n in structure if n % 8 == 0)
        if eight_rank == 0:
            return TowerVerdict(
                Verdict.EXACTLY_2_BY_8RANK,
                f"quotient 64.150 with supplied Cl2 {structure} of 8-rank 0: "
                "the narrow tower stops at length 2",
            )
        return TowerVerdict(
            Verdict.UNKNOWN_64_150,
            f"quotient 64.150 and supplied Cl2 {structure} has 8-rank "
            f"{eight_rank}: the termination test fails, length undecided",
        )
    return TowerVerdict(
        Verdict.UNKNOWN_64_150,
        "quotient 64.150 does not decide the length; supply the octic Cl2 "
        "structure to run the 8-rank termination test",
    )


# -- invariant-row verification ----------------------------------------------

_PATTERN_RE = re.compile(r"(\d*)(?:h2\(([A-Za-z0-9]+)\))?")


def _atoms_value(atoms: str, assignment: Sequence[int]) -> int:
    """Evaluate a product pattern like 'p1p2p4', 'd1d2', '2p3' or '2'."""
    value = 1
    i = 0
    while i < len(atoms):
        ch = atoms[i]
        if ch in "pd":
            idx = int(atoms[i + 1])
            q = assignment[idx - 1]
            value *= prime_of(q) if ch == "p" else q
            i += 2
        elif ch == "2":
            value *= 2
            i += 1
        else:
            raise ValueError(f"bad atom {ch!r} in pattern {atoms!r}")
    return value


def _pattern_value(pattern: str, assignment: Sequence[int], h2) -> int:
    """Evaluate a class-number pattern like '4', '2h2(d1d2)' or 'h2(p1p2)'.

    h2 maps a discriminant to its 2-class number.
    """
    m = _PATTERN_RE.fullmatch(pattern)
    if m is None:
        raise ValueError(f"bad pattern {pattern!r}")
    value = int(m.group(1)) if m.group(1) else 1
    if m.group(2):
        rad = squarefree_kernel(_atoms_value(m.group(2), assignment))
        value *= h2(discriminant_of(rad))
    return value


def _display(pattern) -> str:
    if isinstance(pattern, dict):
        keys = [k for k in pattern if k != "by"]
        return " | ".join(f"{pattern[k]} ({pattern['by']}={k})" for k in keys)
    return str(pattern)


def _resolve(pattern, nu34: int, eps_sign: int):
    if isinstance(pattern, dict):
        key = str(nu34) if pattern["by"] == "nu34" else ("-1" if eps_sign < 0 else "+1")
        return pattern[key]
    return pattern


@dataclass(frozen=True)
class RowEntry:
    column: str
    expected: str
    computed: str
    matched: bool


@dataclass(frozen=True)
class InvariantRowReport:
    d: int
    label: str
    assignment: tuple[int, int, int, int]
    nu34: int
    eps_sign: int
    entries: tuple[RowEntry, ...]

    @property
    def matched(self) -> bool:
        return all(e.matched for e in self.entries)

    def mismatches(self) -> list[RowEntry]:
        return [e for e in self.entries if not e.matched]


def verify_invariant_row(d: int | CaseRecord) -> InvariantRowReport:
    """Recompute the invariant-row quantities for d and diff them.

    Every value (delta of the three relevant units, the norm of eps over
    sqrt(d1 d2), the three quartic unit indices and 2-class numbers, and
    the order 4*h2 of the degree-8 step) is computed from scratch via the
    unit and form modules, then matched against the encoded row patterns,
    resolving the nu34 and norm branches by computation.  Each subfield
    fundamental unit, with the square root its delta and unit indices read,
    and each 2-class number is computed once per call.
    Mismatches are report entries, not errors; a failed computation, or a
    failed evaluation of a pattern, raises RowComputationError naming the
    column it stopped.  A CaseRecord of d skips classifying it again.
    """
    rec = d if isinstance(d, CaseRecord) else classify(d)
    d = rec.d
    patterns = _TABLES["invariant_rows"].get(rec.label)
    if patterns is None:
        raise RowPatternsUnavailableError(
            f"case {rec.label} has no encoded invariant-row patterns"
        )
    a = rec.assignment
    d1, d2, d3, d4 = a
    nu34 = rec.symbol_matrix[5]
    expected_nu = patterns["nu"]
    nu_ok = all(
        want == "*" or want == got
        for want, got in zip(expected_nu, rec.symbol_matrix)
    )
    entries = [RowEntry("nu", str(expected_nu), str(list(rec.symbol_matrix)), nu_ok)]

    # per-call memos; each looks its function up in this module when the
    # call starts, so a name replaced there still sees every computation
    unit = functools.cache(fundamental_unit)
    h2 = functools.cache(two_class_number)

    def check(spec, value: int) -> None:
        pattern = _resolve(spec, nu34, eps_sign)
        if column.startswith("delta"):
            want = _atoms_value(pattern, a)
        else:
            want = _pattern_value(pattern, a, h2)
        entries.append(RowEntry(column, pattern, str(value), value == want))

    column = "n_eps12"
    try:
        eps_sign = unit(d1 * d2).norm
        allowed = patterns["n_eps12"]
        computed = f"{eps_sign:+d}"
        entries.append(
            RowEntry(column, " | ".join(allowed), computed, computed in allowed)
        )
        for column, disc in (("delta", d), ("delta1", d // d1), ("delta2", d // d2)):
            check(patterns[column], delta_invariant(unit(disc)))
        # the quartic field Q(sqrt d, sqrt x) has the quadratic subfields of
        # discriminants x, d and d/x; the three lie in their compositum, the
        # octic field below, and all four unit indices read its characters
        # from one table
        column = "q1"
        octic = (radicand(d1), radicand(d2), radicand(d3 * d4))
        table = CharacterTable(octic)
        for i, x in enumerate((d1, d2, d1 * d2), start=1):
            column = f"q{i}"
            q_i = kubota_index(radicand(x), radicand(d // x), unit=unit, table=table)
            check(patterns["q"][i - 1], q_i)
            column = f"h2_{i}"
            check(
                patterns["h2"][i - 1],
                multiquadratic_h2([h2(x), h2(d), h2(d // x)], q_i, 4),
            )
        # their compositum Q(sqrt d1, sqrt d2, sqrt d3d4) has seven quadratic
        # subfields
        column = "order"
        q = kubota_index(*octic, unit=unit, table=table)
        discs = (d1, d2, d3 * d4, d1 * d2, d // d2, d // d1, d)
        check(patterns["order"], 4 * multiquadratic_h2([h2(x) for x in discs], q, 8))
    except Exception as e:  # surfaced with the field and blocked column attached
        raise RowComputationError(d, column, e) from e

    return InvariantRowReport(d, rec.label, a, nu34, eps_sign, tuple(entries))


def family_member(d: int, sieved: Sieved | None = None) -> CaseRecord | None:
    """The case record of d, or None when d is not in the family; `sieved`
    is passed on to `classify`.  A member that matches no row, or several,
    raises as in `classify`: only edited case tables can do that, and a
    scan must not drop such a d silently."""
    if d % 4 not in (0, 1):
        return None
    try:
        return classify(d, sieved=sieved)
    except PreconditionError:
        return None


# most integers factored by one sieve; a scan also checkpoints and hands out
# --jobs tasks in blocks of at most this many
SCAN_BLOCK = 1000


def iter_family(lo: int, hi: int) -> Iterator[CaseRecord]:
    """Classify every qualifying discriminant in [lo, hi), ascending, with
    one factoring sieve per block of integers."""
    for start in range(lo, hi, SCAN_BLOCK):
        end = min(start + SCAN_BLOCK, hi)
        members = map(family_member, range(start, end), sieve_factors(start, end))
        yield from filter(None, members)
