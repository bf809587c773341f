"""The user-facing vanishing decision.

decide_vanishing answers: does det of the cumulant subtensor indexed by
S_1..S_k vanish on *every* model consistent with the graph?  It searches
for a trek system without sided intersection: a found system certifies
generic non-vanishing, and an empty search proves vanishing (at order 2
it leaves a t-separator).  The algebraic record beside the verdict comes
from one of two modes:

  * randomized — evaluate the determinant exactly at random rational
    instances (five zeros at a 997-value range makes a false "vanishes"
    call vanishingly unlikely).  The trials evaluate the unfactored
    determinant, so they stay an algebraic check independent of the
    search: a nonzero draw beside an empty search is a hard
    InternalInconsistency.  When a witness exists but every draw is 0,
    the record adds the zero test's entry below.
  * certain — decide exactly whether the determinant is the zero
    polynomial in the model parameters.  On the canonical DAG the
    search's own enumeration of top sets is that test
    (treks.first_linked_top holds the proof): an empty search records
    "0", and a found one names the top set T of the witness it returned,
    at order 2 the tops of the flow's treks.  Certain mode evaluates no
    polynomial and builds no determinant plan.

The search rule depends on the order k.  At k = 2 it is classical trek
separation (Sullivant, Talaska and Draisma 2010): one max flow on a
doubled graph finds n treks without sided intersection, or a separator
(C_A, C_B) with |C_A| + |C_B| < n that every trek between the sides
meets, which proves vanishing on its own; the Vanishes certificate is
{"separator": [C_A, C_B]} in canonical-DAG vertex ids (latents get ids
above the original ones).  At even k every side needs a
vertex-disjoint path system (the paper's criterion).  At odd k side 1
is open: each vertex carries up to n side-1 paths and each side-1
position takes one, because meetings on side 1 carry the sign factor
(-1)**(k-1) = +1 and do not cancel.  With that rule the empty search is
equivalent to vanishing at every order.

Graphs with multidirected edges are decided through their canonical
DAG, whose latent parametrization is exactly the hidden-variable
model; certificates are re-expressed over the original vertices.

Randomized trials and replayed seeds come from one determinant plan
per call on the canonical DAG and the sides: the graph-only work is
done once, and a trial draws its seed's values in the one layout order
that sample_generic_instance uses, without building the instance.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

from .cumulants import VALUE_RANGE, _DeterminantPlan
from .errors import InternalInconsistency, SchemaError
from .graphs import MixedGraph, canonical_dag, serialize_graph
from .ser import canonical_json, frac_to_str, read_ints, read_json
from .treks import (
    DEFAULT_BUDGET,
    TrekSearchResult,
    check_ktrek_separation,
    checked_sides,
    exists_trek_system_no_sided_intersection,
    first_linked_top,
    obstructions_to_doc,
    repeated_side,
    system_defect,
    trek_system_from_doc,
    trek_system_to_doc,
)

VANISHES = "Vanishes"
NOT_VANISHES = "NotVanishes"

EXIT_NOT_VANISHES = 0
EXIT_VANISHES = 10


@dataclass(frozen=True)
class Decision:
    """Verdict plus certificates from both routes; serializes canonically."""

    verdict: str
    combinatorial_certificate: dict
    algebraic_record: tuple[dict, ...]
    mode: str
    graph_hash: str
    sides: tuple[tuple[int, ...], ...]
    order: int
    seed: int | None
    trials: int | None
    value_range: int | None

    def to_doc(self) -> dict:
        return {
            "verdict": self.verdict,
            "combinatorial_certificate": self.combinatorial_certificate,
            "algebraic_record": list(self.algebraic_record),
            "mode": self.mode,
            "graph_hash": self.graph_hash,
            "sides": [list(s) for s in self.sides],
            "order": self.order,
            "seed": self.seed,
            "trials": self.trials,
            "value_range": self.value_range,
        }

    def to_json(self) -> str:
        return canonical_json(self.to_doc())

    @property
    def exit_code(self) -> int:
        return EXIT_VANISHES if self.verdict == VANISHES else EXIT_NOT_VANISHES


def graph_hash(g: MixedGraph) -> str:
    return hashlib.sha256(serialize_graph(g).encode("utf-8")).hexdigest()


_TOP_ENTRY = "nonzero-polynomial(top "


def _top_defect(
    dag: MixedGraph, sides: tuple[tuple[int, ...], ...], recorded: str
) -> str | None:
    """Why a recorded "nonzero-polynomial(top [...])" entry does not re-derive, else None."""
    body = recorded[len(_TOP_ENTRY):-1] if recorded.endswith(")") else ""
    try:
        top = read_ints(read_json(body), "/")
    except SchemaError:
        top = None
    n = len(sides[0])
    if top is None or len(top) != n or len(set(top)) != n or not set(top) <= set(dag.vertices):
        return f"recorded top in {recorded!r} is no {n}-set of canonical-DAG vertices"
    if not first_linked_top(dag, sides, [top], open_first_side=len(sides) % 2 == 1).found:
        return f"recorded top {top} has a zero factor"
    return None


def instance_seed(seed: int, trial: int) -> int:
    """Deterministic per-trial seed derivation for the randomized mode."""
    return seed * 1_000_003 + trial + 1


def decide_vanishing(
    g: MixedGraph,
    sides: Sequence[Sequence[int]],
    mode: str = "randomized",
    seed: int | None = None,
    trials: int = 5,
    budget: int = DEFAULT_BUDGET,
) -> Decision:
    """Decide identical vanishing of det C^(k) over the sides (k = number of sides)."""
    side_lists = checked_sides(g.vertices, sides)
    k = len(side_lists)
    if mode not in ("randomized", "certain"):
        raise ValueError(f"unknown mode {mode!r}")
    if mode == "randomized" and seed is None:
        raise ValueError("randomized mode needs a seed")
    if mode == "randomized" and trials < 1:
        raise ValueError(f"trials must be >= 1, got {trials}")

    digest = graph_hash(g)

    if repeated_side(side_lists, open_first_side=k % 2 == 1) is not None:
        # Policy short-circuit: equal slices along a signed mode force a
        # zero determinant, so the record stays empty by design.  A repeat
        # on side 1 alone at odd k forces nothing and is decided below.
        return Decision(
            verdict=VANISHES,
            combinatorial_certificate={"policy": "repeated vertex within a side"},
            algebraic_record=(),
            mode=mode,
            graph_hash=digest,
            sides=side_lists,
            order=k,
            seed=seed,
            trials=None,
            value_range=None,
        )

    search = exists_trek_system_no_sided_intersection(
        g, side_lists, budget, open_first_side=k % 2 == 1
    )

    record: list[dict] = []
    nonzero = False
    if mode == "randomized":
        plan = _DeterminantPlan(canonical_dag(g).dag, side_lists)
        for t in range(trials):
            child = instance_seed(seed, t)
            det = Fraction(plan.at_seed(child))
            record.append({"seed": child, "determinant": frac_to_str(det)})
            nonzero = nonzero or bool(det)
        if nonzero and not search.found:
            raise InternalInconsistency(
                f"order-{k} routes disagree: no trek system, nonzero determinant: "
                f"graph={serialize_graph(g)}, sides={side_lists}"
            )
    if mode == "certain" or (search.found and not nonzero):
        # The symbolic zero test: "0" for the zero polynomial, else the
        # search's top set T, whose term kappa_T is nonzero (see
        # first_linked_top), in canonical-DAG ids.  A randomized run needs
        # it only when every draw landed on a root of a witnessed
        # (generically nonzero) determinant.
        value = "0" if search.top is None else f"{_TOP_ENTRY}{list(search.top)})"
        record.append({"seed": None, "determinant": value})

    if search.found:
        certificate = {"trek_system": trek_system_to_doc(search.system)}
        verdict = NOT_VANISHES
    elif search.separator is not None:
        certificate = {"separator": [list(part) for part in search.separator]}
        verdict = VANISHES
    else:
        certificate = {"obstructions": obstructions_to_doc(search.obstructions)}
        verdict = VANISHES
    return Decision(
        verdict=verdict,
        combinatorial_certificate=certificate,
        algebraic_record=tuple(record),
        mode=mode,
        graph_hash=digest,
        sides=side_lists,
        order=k,
        seed=seed,
        trials=trials if mode == "randomized" else None,
        value_range=VALUE_RANGE if mode == "randomized" else None,
    )


def detect_common_cause(
    g: MixedGraph,
    indices: Sequence[int],
    mode: str = "randomized",
    seed: int | None = None,
    trials: int = 5,
    budget: int = DEFAULT_BUDGET,
) -> Decision:
    """Do the given variables share a cause?  decide_vanishing with singleton sides.

    The subtensor is 1 x ... x 1, so the determinant is the single
    cumulant entry: NotVanishes means the entry is generically nonzero,
    i.e. the variables admit a common cause (a trek joining them all).
    """
    if len(indices) < 2:
        raise ValueError("need at least two variables")
    return decide_vanishing(
        g, [(i,) for i in indices], mode=mode, seed=seed, trials=trials, budget=budget
    )


def _separator_defect(
    dag: MixedGraph, sides: tuple[tuple[int, ...], ...], separator: object
) -> str | None:
    """Why ``separator`` is no order-2 vanishing certificate on the DAG, else None."""
    if len(sides) != 2:
        return f"a separator certifies order 2 only, not order {len(sides)}"
    if not (
        isinstance(separator, list)
        and len(separator) == 2
        and all(isinstance(part, list) for part in separator)
    ):
        return "separator must be two lists of vertex ids"
    vset = set(dag.vertices)
    for part in separator:
        for v in part:
            if type(v) is not int or v not in vset:
                return f"separator names {v!r}, which is no vertex of the canonical DAG"
    if len(separator[0]) + len(separator[1]) >= len(sides[0]):
        return "separator is not smaller than the sides"
    if not check_ktrek_separation(dag, sides, separator):
        return "separator does not t-separate the sides"
    return None


def _is_obstruction_log(log: object) -> bool:
    """A list of {"top": [ints], "blocked_side": int}, the one log shape ever written."""
    return isinstance(log, list) and all(
        isinstance(e, dict) and set(e) == {"top", "blocked_side"} and isinstance(e["top"], list)
        and all(type(v) is int for v in [*e["top"], e["blocked_side"]])
        for e in log
    )


def certify_decision(g: MixedGraph, doc: dict, budget: int = DEFAULT_BUDGET) -> tuple[bool, str]:
    """Re-verify a stored Decision document against the graph.

    Checks the graph digest, replays the recorded algebraic evaluations
    seed by seed, and re-validates the combinatorial certificate (the
    witness system's paths, cover, distinct hyperedge tops and
    intersection-freeness under the oracle's rule, which lets side-1
    paths meet at odd orders; for an order-2 vanishing verdict, that
    the separator is smaller than the sides and t-separates them on the
    canonical DAG; for any other vanishing verdict, that the search
    still comes up empty, which from order 3 on is also the symbolic
    zero test).  A non-vanishing record must carry a nonzero
    determinant; a symbolic entry naming a top set T must name an n-set
    of canonical-DAG vertices linked to every side, so that its factors
    of the determinant are all nonzero (see first_linked_top).  A policy
    certificate must cite a repeat that forces zero (see repeated_side);
    an obstruction log is checked by shape.
    Earlier versions wrote order-2 vanishing decisions with an
    obstruction log instead of a separator, and NotVanishes decisions
    with a "gap" marker (paper criterion empty, determinant nonzero);
    such documents are still accepted, the former once the search comes
    up empty, the latter once both halves of the gap are re-confirmed.
    A malformed document is rejected with a reason, never an exception.
    """
    if not isinstance(doc, dict):
        return False, "a decision document must be a JSON object"
    digest = graph_hash(g)
    if doc.get("graph_hash") != digest:
        return False, "graph hash does not match"
    try:
        sides = checked_sides(g.vertices, doc.get("sides", []))
    except (TypeError, ValueError) as exc:
        return False, f"decision sides are malformed: {exc}"
    verdict = doc.get("verdict")
    if verdict not in (VANISHES, NOT_VANISHES):
        return False, f"unknown verdict {verdict!r}"
    k = len(sides)

    certificate = doc.get("combinatorial_certificate", {})
    if not isinstance(certificate, dict):
        return False, "the combinatorial certificate must be a JSON object"
    record = doc.get("algebraic_record", [])
    if not isinstance(record, list) or not all(isinstance(entry, dict) for entry in record):
        return False, "the algebraic record must be a list of JSON objects"

    if "policy" in certificate:
        if verdict == VANISHES and repeated_side(sides, open_first_side=k % 2 == 1) is not None:
            return True, "policy short-circuit verified"
        return False, "policy certificate does not apply to these sides"

    if verdict == VANISHES and "gap" in certificate:
        return False, "vanishing verdict cannot carry a gap marker"
    gap = verdict == NOT_VANISHES and "gap" in certificate
    # Every search below needs sides without repeats (side 1 may repeat at
    # odd orders, except on the gap route, which searches with it closed).
    if repeated_side(sides, open_first_side=k % 2 == 1 and not gap) is not None:
        return False, "the sides repeat a vertex, which only a policy certificate covers"

    dag = canonical_dag(g).dag
    plan = None
    replayed_nonzero = False
    claimed_nonzero = False
    for entry in record:
        child = entry.get("seed")
        recorded = entry.get("determinant")
        if child is None:
            if str(recorded).startswith("nonzero-polynomial"):
                if verdict == VANISHES:
                    return False, "vanishing verdict carries a nonzero determinant"
                if isinstance(recorded, str) and recorded.startswith(_TOP_ENTRY):
                    defect = _top_defect(dag, sides, recorded)
                    if defect is not None:
                        return False, defect
                claimed_nonzero = True
            continue  # other symbolic entries are re-derived below where needed
        if type(child) is not int:
            return False, f"recorded seed {child!r} is not an integer"
        if plan is None:
            plan = _DeterminantPlan(dag, sides)
        det = Fraction(plan.at_seed(child))
        if frac_to_str(det) != recorded:
            return False, f"recorded determinant at seed {child} does not replay"
        if det:
            replayed_nonzero = True
        if verdict == VANISHES and det:
            return False, "vanishing verdict carries a nonzero determinant"

    if gap:
        # Accept-only path for documents written before the odd-order rule.
        if not _is_obstruction_log(certificate.get("obstructions")):
            return False, "gap certificate is missing the obstruction log"
        if k == 2:
            return False, "gap certificate is impossible at order 2"
        gap_search = exists_trek_system_no_sided_intersection(g, sides, budget)
        if gap_search.found:
            return False, "a trek system without sided intersection exists after all"
        if not (
            replayed_nonzero
            or first_linked_top(dag, sides, open_first_side=k % 2 == 1, budget=budget).found
        ):
            return False, "gap certificate carries no nonzero evidence"
        return True, "gap verified: no witness system, determinant nonzero"

    if verdict == NOT_VANISHES:
        if not (replayed_nonzero or claimed_nonzero):
            return False, "non-vanishing verdict carries no nonzero determinant"
        if "trek_system" not in certificate:
            return False, "missing trek system certificate"
        try:
            system = trek_system_from_doc(certificate["trek_system"])
        except (KeyError, ValueError, TypeError, SchemaError) as exc:
            return False, f"malformed trek system: {exc}"
        if tuple(system.side_endpoints) != tuple(sides):
            return False, "trek system endpoints do not match the decision sides"
        defect = system_defect(g, system, open_first_side=k % 2 == 1)
        if defect is not None:
            return False, f"certificate {defect}"
        sign = certificate["trek_system"].get("sign")
        if type(sign) is not int or system.sign != sign:
            return False, "stored sign does not match the recomputed sign"
        return True, "certificate verified"

    if "separator" in certificate:
        defect = _separator_defect(dag, sides, certificate["separator"])
        if defect is not None:
            return False, defect
        return True, "separator verified"
    if not _is_obstruction_log(certificate.get("obstructions")):
        return False, "vanishing certificate needs a separator or an obstruction log"

    search: TrekSearchResult = exists_trek_system_no_sided_intersection(
        g, sides, budget, open_first_side=k % 2 == 1
    )
    if search.found:
        return False, "a trek system without sided intersection exists after all"
    return True, "vanishing re-verified"
