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
from .ser import (
    canonical_int, canonical_json, checked_seed, frac_to_str, read_ints, read_json, strict_int,
)
from .treks import (
    DEFAULT_BUDGET,
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


_NONZERO_ENTRY = "nonzero-polynomial("
_TOP_ENTRY = _NONZERO_ENTRY + "top "


def _symbolic_defect(
    dag: MixedGraph, sides: tuple[tuple[int, ...], ...], open_first: bool, verdict: str,
    recorded: object,
) -> str | None:
    """Why a null-seed record entry is no form written beside the verdict, or
    does not re-derive, else None.

    The forms: "0" beside Vanishes; beside NotVanishes
    "nonzero-polynomial(top [...])", whose top set must be an n-set of
    canonical-DAG vertices linked to every side, so that its factors of
    the determinant are all nonzero (see first_linked_top), or, as
    versions before the factored zero test wrote it,
    "nonzero-polynomial(N terms)" with N a canonical integer >= 1.
    """
    n = len(sides[0])
    text = recorded if isinstance(recorded, str) else ""
    top = None
    if text.startswith(_TOP_ENTRY):
        try:
            top = read_ints(read_json(text[len(_TOP_ENTRY):-1] if text.endswith(")") else ""), "/")
        except SchemaError:
            pass
        if top is None or len(top) != n or len(set(top)) != n or not set(top) <= set(dag.vertices):
            return f"recorded top in {recorded!r} is no {n}-set of canonical-DAG vertices"
    elif text.startswith(_NONZERO_ENTRY) and text.endswith(" terms)"):
        if (canonical_int(text[len(_NONZERO_ENTRY):-len(" terms)")]) or 0) < 1:
            return f"recorded term count in {recorded!r} is no positive integer"
    elif text != "0":
        return f"recorded symbolic determinant {recorded!r} is no known form"
    if (text == "0") != (verdict == VANISHES):
        if verdict == VANISHES:
            return "vanishing verdict carries a nonzero determinant"
        return "non-vanishing verdict carries a zero polynomial"
    linked = top is None or first_linked_top(dag, sides, [top], open_first_side=open_first).found
    return None if linked else f"recorded top {top} has a zero factor"


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
    """Decide identical vanishing of det C^(k) over the sides (k = number of sides).

    ``seed`` (None or an int >= 0, ser.checked_seed), ``budget`` (an int
    >= 0, by the same rule) and ``trials`` (an int) refuse anything else,
    bools included; randomized mode needs a seed and trials >= 1.
    A side that repeats a vertex along a signed mode forces a zero
    determinant: the certificate is the policy, the record is empty and
    trials and value_range are null.  Otherwise the search gives the
    certificate, and the record holds the seeded draws instance_seed(seed,
    t) for t < trials (randomized mode) and the symbolic zero test's entry
    (certain mode, or a witness beside draws that are all 0).
    """
    side_lists = checked_sides(g.vertices, sides)
    k = len(side_lists)
    open_first = k % 2 == 1
    if mode not in ("randomized", "certain"):
        raise ValueError(f"unknown mode {mode!r}")
    if seed is not None:
        checked_seed(seed)
    checked_seed(budget, "budget")
    strict_int(trials, "trials")
    if mode == "randomized" and seed is None:
        raise ValueError("randomized mode needs a seed")
    if mode == "randomized" and trials < 1:
        raise ValueError(f"trials must be >= 1, got {trials}")

    record: list[dict] = []
    policy = repeated_side(side_lists, open_first_side=open_first) is not None
    drawn = mode == "randomized" and not policy
    if policy:
        # Equal slices along a signed mode force a zero determinant, so the
        # record stays empty by design.  A repeat on side 1 alone at odd k
        # forces nothing and is decided by the search.
        verdict, certificate = VANISHES, {"policy": "repeated vertex within a side"}
    else:
        search = exists_trek_system_no_sided_intersection(
            g, side_lists, budget, open_first_side=open_first
        )
        nonzero = False
        if drawn:
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
        if not drawn or (search.found and not nonzero):
            # The symbolic zero test: "0" for the zero polynomial, else the
            # search's top set T, whose term kappa_T is nonzero (see
            # first_linked_top), in canonical-DAG ids.  A randomized run needs
            # it only when every draw landed on a root of a witnessed
            # (generically nonzero) determinant.
            value = "0" if search.top is None else f"{_TOP_ENTRY}{list(search.top)})"
            record.append({"seed": None, "determinant": value})
        verdict = NOT_VANISHES if search.found else VANISHES
        if search.found:
            certificate = {"trek_system": trek_system_to_doc(search.system)}
        elif search.separator is not None:
            certificate = {"separator": [list(part) for part in search.separator]}
        else:
            certificate = {"obstructions": obstructions_to_doc(search.obstructions)}
    return Decision(
        verdict=verdict,
        combinatorial_certificate=certificate,
        algebraic_record=tuple(record),
        mode=mode,
        graph_hash=graph_hash(g),
        sides=side_lists,
        order=k,
        seed=seed,
        trials=trials if drawn else None,
        value_range=VALUE_RANGE if drawn else None,
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


def _provenance_defect(doc: dict) -> str | None:
    """Why the document's account of how it was made is not the one
    decide_vanishing writes, else None; for a document that passed every
    other check of certify_decision."""
    k = len(doc["sides"])
    fields = ("order", "mode", "seed", "trials", "value_range")
    order, mode, seed, trials, value_range = map(doc.get, fields)
    seeds = [entry["seed"] for entry in doc["algebraic_record"] if entry["seed"] is not None]
    if type(order) is not int or order != k:
        return f"recorded order {order!r} is not the number of sides, {k}"
    if mode not in ("randomized", "certain"):
        return f"unknown mode {mode!r}"
    if mode == "certain" or "policy" in doc["combinatorial_certificate"]:
        for field, value in ("trials", trials), ("value_range", value_range), ("seeds", seeds or None):
            if value is not None:
                return f"a {mode}-mode document without draws records {field} {value!r}"
        return None
    if type(seed) is not int:
        return f"a randomized document needs an integer seed, not {seed!r}"
    if type(trials) is not int or trials < 1:
        return f"recorded trials {trials!r} is no positive integer"
    if type(value_range) is not int or value_range != VALUE_RANGE:
        return f"recorded value_range {value_range!r} is not {VALUE_RANGE}"
    if len(seeds) != trials:
        return f"the record's seeded entries number {len(seeds)}, not the {trials} recorded trials"
    if seeds != [instance_seed(seed, t) for t in range(trials)]:
        return f"the seeded entries are not the trial seeds of seed {seed}, in order"
    return None


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
    determinant.  A record entry has the keys seed and determinant: a
    seeded one must replay, a null-seed one must be a written symbolic
    form that fits the verdict and re-derives (see _symbolic_defect).  A
    policy certificate must cite a repeat that forces zero (see
    repeated_side) beside an empty record; an obstruction log is checked by shape.
    Earlier versions wrote order-2 vanishing decisions with an
    obstruction log instead of a separator, and NotVanishes decisions
    with a "gap" marker (paper criterion empty, determinant nonzero);
    such documents are still accepted, the former once the search comes
    up empty, the latter once both halves of the gap are re-confirmed.

    Once all of that holds, the document's own account of how it was
    made is checked (see _provenance_defect): ``order`` is the number of
    sides and ``mode`` is randomized or certain; a randomized document
    other than a policy one has an int seed, an int ``trials`` >= 1, a
    ``value_range`` of VALUE_RANGE and seeded entries that are exactly
    instance_seed(seed, t) for t < trials, in order; every other document
    has null ``trials`` and ``value_range`` and no seeded entry.
    A malformed document is rejected with a reason, never an exception;
    a negative budget is a ValueError (ser.checked_seed).
    """
    checked_seed(budget, "budget")
    valid, reason = _certify_claims(g, doc, budget)
    defect = _provenance_defect(doc) if valid else None
    return (False, defect) if defect else (valid, reason)


def _certify_claims(g: MixedGraph, doc: dict, budget: int) -> tuple[bool, str]:
    """certify_decision's checks of the verdict, its certificate and its record."""
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
    open_first = k % 2 == 1

    certificate = doc.get("combinatorial_certificate", {})
    if not isinstance(certificate, dict):
        return False, "the combinatorial certificate must be a JSON object"
    record = doc.get("algebraic_record", [])
    if not isinstance(record, list) or not all(isinstance(entry, dict) for entry in record):
        return False, "the algebraic record must be a list of JSON objects"

    if "policy" in certificate:
        if record:  # the short-circuit evaluates nothing, so it never wrote an entry
            return False, "a policy certificate carries no algebraic record"
        if verdict == VANISHES and repeated_side(sides, open_first_side=open_first) is not None:
            return True, "policy short-circuit verified"
        return False, "policy certificate does not apply to these sides"

    if verdict == VANISHES and "gap" in certificate:
        return False, "vanishing verdict cannot carry a gap marker"
    gap = verdict == NOT_VANISHES and "gap" in certificate
    # Every search below needs sides without repeats (side 1 may repeat at
    # odd orders, except on the gap route, which searches with it closed).
    if repeated_side(sides, open_first_side=open_first and not gap) is not None:
        return False, "the sides repeat a vertex, which only a policy certificate covers"

    dag = canonical_dag(g).dag
    plan = None
    replayed_nonzero = False
    claimed_nonzero = False
    for entry in record:
        if set(entry) != {"seed", "determinant"}:
            return False, "each algebraic record entry needs exactly the keys seed and determinant"
        child = entry["seed"]
        recorded = entry["determinant"]
        if child is None:
            defect = _symbolic_defect(dag, sides, open_first, verdict, recorded)
            if defect is not None:
                return False, defect
            claimed_nonzero = claimed_nonzero or recorded != "0"
            continue
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
            or first_linked_top(dag, sides, open_first_side=open_first, budget=budget).found
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
        defect = system_defect(g, system, open_first_side=open_first)
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

    if exists_trek_system_no_sided_intersection(g, sides, budget, open_first_side=open_first).found:
        return False, "a trek system without sided intersection exists after all"
    return True, "vanishing re-verified"
