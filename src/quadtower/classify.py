"""Case classification for four-prime discriminants and tower-length verdicts.

A real quadratic field whose discriminant splits into four prime
discriminants, is not a sum of two squares, and has 2-class group (2,2)
falls into one of four sign types and, within the type, one of finitely
many Kronecker-symbol rows.  The rows, their Galois-type sets, their
order-32/64 quotient labels, and the per-case unit/class-number invariant
patterns ship in case_tables.json; this module searches the factor
assignment, recomputes every symbol, and never copies a computed quantity
out of the table.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from enum import Enum
from importlib import resources
from itertools import permutations
import re
from typing import Iterator, Sequence

from .arith import (
    NotFundamentalError,
    discriminant_of,
    factor_discriminant,
    is_sum_of_two_squares,
    kronecker,
    prime_of,
    squarefree_kernel,
)
from .conic import h8_symbols
from .qform import class_group, two_class_number, two_sylow
from .units import delta_invariant, fundamental_unit, kubota_index, multiquadratic_h2

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
    "h8_predicate",
    "tower_verdict",
    "verify_invariant_row",
    "iter_family",
    "prime_of",
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
        super().__init__(f"d = {d}, column {column}: {cause}")


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


def _symbol(assignment: Sequence[int], top: str, under: str) -> int:
    value = assignment[int(top[1]) - 1]
    p = prime_of(assignment[int(under[1]) - 1])
    return kronecker(value, p)


def _candidate_assignments(
    type_name: str, table: dict, factors: Sequence[int]
) -> Iterator[tuple[int, ...]]:
    pos = [q for q in factors if q > 0]
    neg = [q for q in factors if q < 0]
    if "d4" in table:
        if table["d4"] not in factors:
            return
        rest = [q for q in neg if q != table["d4"]]
        if type_name == "II":
            if len(pos) != 2 or len(rest) != 1:
                return
            for a, b in permutations(pos, 2):
                yield (a, b, rest[0], table["d4"])
        else:  # IV
            if pos or len(rest) != 3:
                return
            for a, b, c in permutations(rest, 3):
                yield (a, b, c, table["d4"])
        return
    if -4 in factors:
        return
    if type_name == "I":
        if len(pos) != 2 or len(neg) != 2:
            return
        for head in permutations(pos, 2):
            for tail in permutations(neg, 2):
                yield head + tail
    else:  # III
        if pos:
            return
        yield from permutations(neg, 4)


def _matches(table: dict, assignment: Sequence[int]) -> str | None:
    for top, under, want in table.get("fixed", ()):
        if _symbol(assignment, top, under) != want:
            return None
    symbols = [_symbol(assignment, top, under) for top, under in table["columns"]]
    for label, row in table["rows"].items():
        if row["symbols"] == symbols:
            return label
    return None


def classify(d: int) -> CaseRecord:
    """Find the unique case row for the discriminant d.

    Searches every factor permutation permitted by the four type
    constraints; among assignments hitting the same row the
    lexicographically smallest (|d1|,|d2|,|d3|,|d4|) wins.
    """
    if d <= 0:
        raise PreconditionError(f"{d} is not positive")
    try:
        factors = factor_discriminant(d)
    except NotFundamentalError as e:
        raise PreconditionError(str(e)) from None
    if len(factors) != 4:
        raise PreconditionError(
            f"{d} has {len(factors)} prime discriminant factors, need 4"
        )
    if is_sum_of_two_squares(d):
        raise PreconditionError(f"{d} is a sum of two squares")
    sylow = two_sylow(class_group(d, narrow=False))
    if sylow != [2, 2]:
        raise PreconditionError(
            f"2-class group of {d} has invariants {sylow}, need [2, 2]"
        )

    hits: list[tuple[str, str, tuple[int, ...]]] = []
    for type_name, table in _TABLES["types"].items():
        for assignment in _candidate_assignments(type_name, table, factors):
            label = _matches(table, assignment)
            if label is not None:
                hits.append((type_name, label, tuple(assignment)))
    if not hits:
        raise NoRowMatchError(
            f"{d} = {'*'.join(map(str, factors))} matches no classification row"
        )
    labels = {label for _, label, _ in hits}
    if len(labels) > 1:
        raise InternalConsistencyError(
            f"{d} matches several rows: {sorted(labels)}"
        )
    type_name, label, assignment = min(
        hits, key=lambda h: tuple(abs(q) for q in h[2])
    )
    nu = tuple(
        0 if _symbol(assignment, f"d{i}", f"p{j}") == 1 else 1
        for i, j in _NU_PAIRS
    )
    row = _TABLES["types"][type_name]["rows"][label]
    patterns = _TABLES["invariant_rows"].get(label)
    return CaseRecord(
        d=d,
        case_type=type_name,
        label=label,
        assignment=assignment,
        symbol_matrix=nu,
        g_type=frozenset(row["g"]),
        gplus_label=row["gplus"],
        g_order_formula=_display(patterns["order"]) if patterns else None,
    )


def h8_predicate(assignment: Sequence[int] | CaseRecord) -> bool:
    """Whether the four quaternion-embedding symbols all equal +1."""
    if isinstance(assignment, CaseRecord):
        assignment = assignment.assignment
    return all(kronecker(top, p) == 1 for top, p in h8_symbols(*assignment))


def tower_verdict(
    rec: CaseRecord, external_octic_cl2: Sequence[int] | None = None
) -> TowerVerdict:
    """Tower-length verdict from the quotient label and optional octic data.

    The partition of labels is a regression-locked constant: order-32
    quotients other than 32.033 terminate the tower at length 2; 32.033 and
    the order-64 quotients except 64.150 force length >= 3; 64.150 is
    undecided unless the supplied Cl2 structure of the octic step has
    8-rank 0.
    """
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
    if external_octic_cl2 is not None:
        structure = tuple(external_octic_cl2)
        if any(n < 1 for n in structure):
            raise ValueError(f"invalid abelian invariants {structure}")
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


def _compute(d: int, column: str, fn):
    try:
        return fn()
    except Exception as e:  # surfaced with the field and blocked column attached
        raise RowComputationError(d, column, e) from e


def verify_invariant_row(
    d: int | CaseRecord, max_steps: int = 10**6
) -> InvariantRowReport:
    """Recompute the invariant-row quantities for d and diff them.

    Every value (delta of the three relevant units, the norm of eps over
    sqrt(d1 d2), the three quartic unit indices and 2-class numbers, and
    the order 4*h2 of the degree-8 step) is computed from scratch via the
    unit and form modules, then matched against the encoded row patterns,
    resolving the nu34 and norm branches by computation.  Each subfield
    2-class number is computed once per call.  Mismatches are report
    entries, not errors.  A CaseRecord of d skips classifying it again.
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
    entries: list[RowEntry] = []

    expected_nu = patterns["nu"]
    nu_ok = all(
        want == "*" or want == got
        for want, got in zip(expected_nu, rec.symbol_matrix)
    )
    entries.append(
        RowEntry("nu", str(expected_nu), str(list(rec.symbol_matrix)), nu_ok)
    )

    eps12 = _compute(d, "n_eps12", lambda: fundamental_unit(d1 * d2, max_steps))
    eps_sign = eps12.norm
    allowed = patterns["n_eps12"]
    entries.append(
        RowEntry(
            "n_eps12",
            " | ".join(allowed),
            f"{eps_sign:+d}",
            f"{eps_sign:+d}" in allowed,
        )
    )

    deltas = {
        "delta": d,
        "delta1": d2 * d3 * d4,
        "delta2": d1 * d3 * d4,
    }
    for column, disc in deltas.items():
        value = _compute(
            d, column,
            lambda disc=disc: delta_invariant(fundamental_unit(disc, max_steps)).delta,
        )
        pattern = _resolve(patterns[column], nu34, eps_sign)
        want = _atoms_value(pattern, a)
        entries.append(RowEntry(column, pattern, str(value), value == want))

    h2_of: dict[int, int] = {}

    def h2(disc: int) -> int:
        if disc not in h2_of:
            h2_of[disc] = two_class_number(disc)
        return h2_of[disc]

    def check(column: str, spec, value: int) -> None:
        pattern = _resolve(spec, nu34, eps_sign)
        entries.append(RowEntry(
            column, pattern, str(value), value == _pattern_value(pattern, a, h2)
        ))

    subfield_discs = (
        (d1, d, d2 * d3 * d4),
        (d2, d, d1 * d3 * d4),
        (d1 * d2, d, d3 * d4),
    )
    for i, discs in enumerate(subfield_discs, start=1):
        q_i = _compute(
            d, f"q{i}",
            lambda discs=discs: kubota_index(
                squarefree_kernel(discs[0]), squarefree_kernel(discs[2]), max_steps=max_steps
            ),
        )
        check(f"q{i}", patterns["q"][i - 1], q_i)
        h2_i = _compute(
            d, f"h2_{i}",
            lambda discs=discs, q_i=q_i: multiquadratic_h2(
                [h2(x) for x in discs], q_i, 4
            ),
        )
        check(f"h2_{i}", patterns["h2"][i - 1], h2_i)

    def octic_order() -> int:
        gens = (squarefree_kernel(d1), squarefree_kernel(d2), squarefree_kernel(d3 * d4))
        q = kubota_index(*gens, max_steps=max_steps)
        discs = (d1, d2, d3 * d4, d1 * d2, d1 * d3 * d4, d2 * d3 * d4, d)
        return 4 * multiquadratic_h2([h2(x) for x in discs], q, 8)

    check("order", patterns["order"], _compute(d, "order", octic_order))

    return InvariantRowReport(d, rec.label, a, nu34, eps_sign, tuple(entries))


def iter_family(lo: int, hi: int) -> Iterator[CaseRecord]:
    """Classify every qualifying discriminant in [lo, hi), ascending."""
    for d in range(max(lo, 5), hi):
        if d % 4 not in (0, 1):
            continue
        try:
            yield classify(d)
        except (PreconditionError, NoRowMatchError):
            continue
