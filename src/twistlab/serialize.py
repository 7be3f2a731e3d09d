"""JSON loading and dumping for groups, cocycles, elements, and element sets.

Round-trips are exact: dump(load(x)) == x up to key order, and every loader
records a sha256 digest of the raw file bytes for report provenance.
"""

from __future__ import annotations

import hashlib
import json
import math
import sys

from .algebra import AlgebraElement
from .cocycles import (MODULUS_TOL, BicharacterCocycle, Cocycle, CoboundaryCocycle,
                       ConjugateCocycle, ProductCocycle, PullbackCocycle,
                       TableCocycle, TrivialCocycle)
from .errors import BackendMismatch, InvalidArgument, TwistlabError
from .groups import (ExtensionGroup, FiniteTableGroup, FreeGroup, Group, IntLattice,
                     json_int)


class ParseError(TwistlabError):
    """Malformed descriptor file."""


def file_digest(path) -> str:
    with open(path, "rb") as fh:
        return hashlib.sha256(fh.read()).hexdigest()


def _require(cond, msg):
    if not cond:
        raise ParseError(msg)


def _number(v, what):
    """v when it is a JSON number, an int or a float that is not a bool;
    ValueError naming ``what`` otherwise."""
    if not isinstance(v, (int, float)) or isinstance(v, bool):
        raise ValueError(f"{what} must be a number, got {v!r}")
    return v


def _complex(v, what):
    """A complex value: a number, or a [re, im] pair of numbers."""
    parts = v if isinstance(v, list) and len(v) == 2 else [v, 0]
    return complex(*(_number(x, what) for x in parts))


def _unique(pairs, what):
    """dict(pairs), with a ValueError naming the key by ``what(key)`` when a
    key comes twice, where dict() would keep the last value silently."""
    out = {}
    for key, value in pairs:
        if key in out:
            raise ValueError(f"{what(key)} is given twice")
        out[key] = value
    return out


def group_from_json(obj) -> Group:
    _require(isinstance(obj, dict) and "kind" in obj, "group descriptor needs a 'kind'")
    kind = obj["kind"]
    if kind == "finite-table":
        _require("table" in obj, "finite-table descriptor needs 'table'")
        g = FiniteTableGroup(obj["table"])
        _require("order" not in obj or json_int(obj["order"], "order") == g.order,
                 "declared order disagrees with the table")
        return g
    if kind == "free":
        return FreeGroup(json_int(obj["rank"], "rank"))
    if kind == "int-lattice":
        return IntLattice(json_int(obj["dim"], "dim"))
    if kind == "extension":
        K = group_from_json(obj["k"])
        _require(K.kind == "finite-table", "extension kernel must be finite-table")
        quotient = group_from_json(obj["lambda"])
        for key in ("action", "factorSet"):
            _require(isinstance(obj.get(key), dict), f"extension {key!r} must be a JSON object")
        action = _unique(((_element_from_key(quotient, h),
                           [json_int(k, "an action entry") for k in p])
                          for h, p in obj["action"].items()),
                         lambda h: f"the action at {_key(quotient, h)}")
        factor_set = _unique(((_pair_from_key(quotient, key), json_int(k, "a factor-set value"))
                              for key, k in obj["factorSet"].items()),
                             lambda pair: "the factor-set value at "
                                          + "|".join(_key(quotient, h) for h in pair))
        return ExtensionGroup(K, quotient, action, factor_set)
    raise ParseError(f"unknown group kind {kind!r}")


def _key(G: Group, g) -> str:
    """g as a JSON map key: str(element_to_json(g))."""
    return str(G.element_to_json(g))


def _element_from_key(G: Group, key: str):
    """Inverse of _key: the key itself on a free group, whose elements are
    text, else its JSON value (str() of an index or a list of indices is
    JSON).  Two keys can name one element ("1" and " 1", or "x1" and
    "x1 x2 x2^-1"); the maps read with it refuse that through _unique."""
    return G.element_from_json(key if G.kind == "free" else json.loads(key))


def _pair_from_key(G: Group, key: str):
    """The pair (h1, h2) of a factor-set key "h1|h2"."""
    h1, h2 = key.split("|")
    return _element_from_key(G, h1), _element_from_key(G, h2)


def cocycle_from_json(obj, G: Group) -> Cocycle:
    _require(isinstance(obj, dict) and "kind" in obj, "cocycle descriptor needs a 'kind'")
    kind = obj["kind"]
    if kind == "trivial":
        return TrivialCocycle(G)
    if kind == "table":
        rows = [[_complex(v, "a table value") for v in row] for row in obj["values"]]
        sigma = TableCocycle(G, rows)
        # TableCocycle sets the identity's row and column to 1; a file must hold 1 there
        for i, j in [(0, k) for k in range(len(rows))] + [(k, 0) for k in range(len(rows))]:
            if not abs(rows[i][j] / rows[0][0] - 1) <= MODULUS_TOL:
                raise InvalidArgument(f"table value [{i}][{j}] is not 1 once divided by [0][0]")
        return sigma
    if kind == "bicharacter":
        return BicharacterCocycle(G, [[_number(v, "a theta entry") for v in row]
                                      for row in obj["theta"]])
    if kind == "coboundary":
        beta = obj["beta"]
        _require(isinstance(beta, dict), "a coboundary's 'beta' must be an object")
        if set(beta) == {"random-seed"}:
            from .fixtures import random_beta
            return CoboundaryCocycle(G, random_beta(G, json_int(beta["random-seed"],
                                                                 "random-seed")))
        bmap = _unique(((_element_from_key(G, key), _complex(v, "a beta value"))
                        for key, v in beta.items()),
                       lambda g: f"beta at {_key(G, g)}")
        return CoboundaryCocycle(G, bmap)
    if kind == "product":
        return ProductCocycle([cocycle_from_json(f, G) for f in obj["factors"]])
    if kind == "conjugate":
        return ConjugateCocycle(cocycle_from_json(obj["base"], G))
    if kind == "pullback":
        # G.quotient is read before PullbackCocycle can check G's kind
        if G.kind != "extension":
            raise BackendMismatch("pullback cocycles need an extension group")
        return PullbackCocycle(G, cocycle_from_json(obj["quotient"], G.quotient))
    raise ParseError(f"unknown cocycle kind {kind!r}")


def _resolve_group(obj, G: Group | None, what: str) -> Group:
    """The group of an element or set file: embedded in it, checked against G
    when G is given, or the "ref" placeholder for G."""
    gdesc = obj.get("group", "ref")
    if gdesc == "ref":
        _require(G is not None, f"{what} file uses a group ref but no group was supplied")
        return G
    loaded = group_from_json(gdesc)
    if G is None:
        return loaded
    G.check_same(loaded)
    return G


def element_from_json(obj, G: Group | None = None) -> AlgebraElement:
    _require(isinstance(obj, dict) and "terms" in obj, "element file needs 'terms'")
    G = _resolve_group(obj, G, "element")
    coeffs = _unique(((G.element_from_json(term["g"]),
                       _complex([term.get("re", 0.0), term.get("im", 0.0)], "a coefficient"))
                      for term in obj["terms"]),
                     lambda g: f"a term at {_key(G, g)}")
    return AlgebraElement(G, coeffs)


def element_set_from_json(obj, G: Group | None = None):
    """A plain set of group elements: {"group": ..., "elements": [g, ...]}."""
    _require(isinstance(obj, dict) and "elements" in obj, "set file needs 'elements'")
    G = _resolve_group(obj, G, "set")
    return G, [G.element_from_json(e) for e in obj["elements"]]


def element_set_to_json(G: Group, elements):
    return {
        "group": G.describe(),
        "elements": [G.element_to_json(g) for g in G.in_order(elements)],
    }


def _reject_constant(name):
    raise ValueError(f"non-finite number {name}")


def _finite_float(text):
    value = float(text)
    if math.isinf(value):
        raise ValueError(f"number {text} overflows a float")
    return value


def _float_sized_int(text):
    value = int(text)
    if abs(value) > sys.float_info.max:
        raise ValueError(f"integer of {len(text.lstrip('-'))} digits overflows a float")
    return value


def _object(pairs):
    return _unique(pairs, lambda key: f"the key {json.dumps(key)}")


def load_json(path):
    """Parse a descriptor file.  NaN, Infinity, numbers too large for a
    float and a key repeated in one object are rejected here, so every loader
    downstream sees finite values and each key once."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return json.load(fh, parse_constant=_reject_constant,
                             parse_float=_finite_float, parse_int=_float_sized_int,
                             object_pairs_hook=_object)
    except (OSError, ValueError) as exc:
        raise ParseError(f"{path}: {exc}") from exc


def dump_json(obj, path):
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(obj, fh, indent=2, sort_keys=True)
        fh.write("\n")
