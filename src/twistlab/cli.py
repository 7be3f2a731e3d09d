"""Batch command-line surface: JSON in, JSON out, everything seeded.

Exit codes: 0 success, 1 I/O or parse error, 2 validation failure,
3 unsupported combination, 4 resource cap exceeded.
"""

from __future__ import annotations

import argparse
import json
import sys

from . import __version__, serialize
from .errors import (BackendMismatch, MemoryBudgetExceeded, TwistlabError,
                     Unsupported)
from .normspectra import (DEFAULT_MEM_CAP, CriterionConfig,
                          certify_free_subsemigroup, criterion_report,
                          exact_norm, haagerup_upper, l2_spectral_radius,
                          transfer_check, truncated_norm_lower)

EXIT_OK = 0
EXIT_IO = 1
EXIT_VALIDATION = 2
EXIT_UNSUPPORTED = 3
EXIT_RESOURCE = 4


def _progress(msg):
    print(msg, file=sys.stderr)


def _load_group(args, inputs):
    obj = serialize.load_json(args.group)
    inputs["group"] = serialize.file_digest(args.group)
    return serialize.group_from_json(obj)


def _load_cocycle(path, G, inputs, slot="cocycle"):
    obj = serialize.load_json(path)
    digest = serialize.file_digest(path)
    if slot in inputs:
        inputs[slot] = ([inputs[slot]] if isinstance(inputs[slot], str)
                        else inputs[slot]) + [digest]
    else:
        inputs[slot] = digest
    return serialize.cocycle_from_json(obj, G)


def _load_element(args, G, inputs, slot="element"):
    obj = serialize.load_json(args.element)
    inputs[slot] = serialize.file_digest(args.element)
    return serialize.element_from_json(obj, G)


def _load_set(args, G, inputs):
    obj = serialize.load_json(args.set)
    inputs["set"] = serialize.file_digest(args.set)
    _, els = serialize.element_set_from_json(obj, G)
    return els


def _emit(report, args, inputs, tolerances):
    out = dict(report)
    out["version"] = __version__
    out["seed"] = getattr(args, "seed", 0)
    out["tolerances"] = tolerances
    out["inputs"] = inputs
    print(json.dumps(out, sort_keys=True, indent=2))
    return EXIT_OK


def cmd_validate(args):
    from .cocycles import validate as validate_cocycle

    inputs = {}
    G = _load_group(args, inputs)
    report = {"group": G.describe() if G.is_finite else {"kind": G.kind},
              "group_valid": True}
    code = EXIT_OK
    if args.cocycle:
        sigma = _load_cocycle(args.cocycle, G, inputs)
        vrep = validate_cocycle(G, sigma, tol=args.tol)
        report["cocycle"] = vrep.to_json()
        if not vrep.passed:
            code = EXIT_VALIDATION
    rc = _emit(report, args, inputs, {"cocycle_identity": args.tol})
    return code if code else rc


def cmd_norm(args):
    inputs = {}
    G = _load_group(args, inputs)
    sigma = _load_cocycle(args.cocycle, G, inputs)
    a = _load_element(args, G, inputs)
    mode = args.mode
    if mode == "exact":
        if not G.is_finite:
            raise Unsupported("exact norms need a finite group")
        est = {"mode": "exact", "value": exact_norm(G, sigma, a)}
    elif mode == "truncate":
        _progress(f"truncating at radius {args.radius}")
        est = {"mode": "truncate", "radius": args.radius,
               "lower": truncated_norm_lower(G, sigma, a, args.radius,
                                             mem_cap=args.mem_cap)}
    elif mode == "haagerup":
        est = {"mode": "haagerup", "upper": haagerup_upper(G, a)}
    else:
        raise Unsupported(f"unknown norm mode {mode!r}")
    return _emit(est, args, inputs, {})


def cmd_transfer(args):
    inputs = {}
    G = _load_group(args, inputs)
    obj = serialize.load_json(args.set)
    inputs["set"] = serialize.file_digest(args.set)
    _, S = serialize.element_set_from_json(obj, G)
    sigmas = [_load_cocycle(p, G, inputs) for p in args.cocycle]
    rep = transfer_check(G, S, sigmas, seed=args.seed, tol=args.tol)
    code = EXIT_OK if rep.passed else EXIT_VALIDATION
    rc = _emit(rep.to_json(), args, inputs, {"transfer": args.tol})
    return code if code else rc


def cmd_specrad(args):
    inputs = {}
    G = _load_group(args, inputs)
    sigma = _load_cocycle(args.cocycle, G, inputs)
    a = _load_element(args, G, inputs)
    rep = l2_spectral_radius(a, sigma, args.powers, mem_cap=args.mem_cap)
    return _emit(rep.to_json(), args, inputs, {})


def _single_element(a):
    sup = a.support()
    if len(sup) != 1:
        raise Unsupported("expected a single-term element file here")
    return sup[0]


def cmd_semigroup(args):
    inputs = {}
    G = _load_group(args, inputs)
    t = _single_element(_load_element(args, G, inputs, slot="t"))
    F = _load_set(args, G, inputs)
    cert = certify_free_subsemigroup(G, t, F, args.length, mem_cap=args.mem_cap)
    return _emit(cert.to_json(), args, inputs, {})


def cmd_criterion(args):
    inputs = {}
    G = _load_group(args, inputs)
    sigma = _load_cocycle(args.cocycle, G, inputs) if args.cocycle else None
    t = _single_element(_load_element(args, G, inputs, slot="t"))
    F = _load_set(args, G, inputs)
    cfg = CriterionConfig(seed=args.seed, max_power=args.powers,
                          radius=args.radius, length=args.length,
                          mem_cap=args.mem_cap)
    rep = criterion_report(G, sigma, t, F, cfg)
    return _emit(rep, args, inputs, {})


def cmd_decompose(args):
    from .crossed import decompose_blocks

    inputs = {}
    G = _load_group(args, inputs)
    if not G.is_finite or G.kind != "finite-table":
        raise Unsupported("decompose needs a finite-table group")
    sigma = _load_cocycle(args.cocycle, G, inputs)
    dec = decompose_blocks(G, sigma, seed=args.seed)
    return _emit(dec.to_json(), args, inputs, {"projection": 1e-9})


def cmd_crossed(args):
    from .crossed import crossed_product_pipeline

    inputs = {}
    G = _load_group(args, inputs)
    if G.kind != "extension":
        raise Unsupported("crossed needs an extension group")
    sigma = _load_cocycle(args.cocycle, G, inputs)
    rep = crossed_product_pipeline(G, sigma, convention=args.convention,
                                   seed=args.seed)
    code = EXIT_OK if rep["axioms"]["passed"] else EXIT_VALIDATION
    rc = _emit(rep, args, inputs, {"axioms": 1e-10})
    return code if code else rc


def build_parser():
    p = argparse.ArgumentParser(prog="twistlab",
                                description="twisted group algebra numerics")
    p.add_argument("--version", action="version", version=__version__)
    sub = p.add_subparsers(dest="command", required=True)

    def add(name, fn, needs=()):
        sp = sub.add_parser(name)
        sp.set_defaults(fn=fn)
        sp.add_argument("--group", required=True)
        if "cocycle" in needs:
            sp.add_argument("--cocycle", required=True)
        if "cocycle?" in needs:
            sp.add_argument("--cocycle", default=None)
        if "cocycles" in needs:
            sp.add_argument("--cocycle", action="append", required=True)
        if "element" in needs:
            sp.add_argument("--element", required=True)
        if "set" in needs:
            sp.add_argument("--set", required=True)
        sp.add_argument("--radius", type=int, default=8)
        sp.add_argument("--powers", type=int, default=12)
        sp.add_argument("--length", type=int, default=8)
        sp.add_argument("--seed", type=int, default=0)
        sp.add_argument("--mem-cap", type=int, default=DEFAULT_MEM_CAP)
        sp.add_argument("--convention", choices=["as-printed", "conjugated"],
                        default="conjugated")
        sp.add_argument("--tol", type=float, default=1e-9)
        return sp

    add("validate", cmd_validate, ("cocycle?",))
    sp = add("norm", cmd_norm, ("cocycle", "element"))
    sp.add_argument("--mode", choices=["exact", "truncate", "haagerup"],
                    required=True)
    add("transfer", cmd_transfer, ("cocycles", "set"))
    add("specrad", cmd_specrad, ("cocycle", "element"))
    add("semigroup", cmd_semigroup, ("element", "set"))
    add("criterion", cmd_criterion, ("cocycle?", "element", "set"))
    add("decompose", cmd_decompose, ("cocycle",))
    add("crossed", cmd_crossed, ("cocycle",))
    return p


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.fn(args)
    except (serialize.ParseError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_IO
    except MemoryBudgetExceeded as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_RESOURCE
    except (Unsupported, BackendMismatch) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_UNSUPPORTED
    except TwistlabError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_VALIDATION


if __name__ == "__main__":
    sys.exit(main())
