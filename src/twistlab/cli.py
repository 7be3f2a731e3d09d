"""Batch command-line surface: JSON in, JSON out, everything seeded.

Exit codes: 0 success, 1 I/O or parse error, 2 validation failure,
3 unsupported combination, 4 resource cap exceeded.
"""

from __future__ import annotations

import argparse
import json
import sys

from . import __version__, serialize
from .errors import (BackendMismatch, InvalidArgument, MemoryBudgetExceeded,
                     TwistlabError, Unsupported)
from .normspectra import (DEFAULT_MEM_CAP, CriterionConfig,
                          certify_free_subsemigroup, criterion_report,
                          exact_norm, haagerup_upper, l2_spectral_radius,
                          transfer_check, truncated_norm_lower)

EXIT_OK = 0
EXIT_IO = 1
EXIT_VALIDATION = 2
EXIT_UNSUPPORTED = 3
EXIT_RESOURCE = 4

# smallest accepted value of each integer flag, by argparse dest
COUNT_MINIMUM = {"radius": 0, "powers": 1, "length": 1, "mem_cap": 1, "seed": 0}


def _progress(msg):
    print(msg, file=sys.stderr)


def _load(path, inputs, slot, build, *context):
    """Read one descriptor file, record its digest under ``slot`` and build
    it with ``build(obj, *context)``.  Malformed content, whatever part of
    the descriptor it is in, becomes a ParseError naming the file (exit 1).
    An InvalidArgument, a well-formed value outside its domain such as a
    coefficient whose modulus overflows, keeps its class and gains the file
    name (exit 2)."""
    obj = serialize.load_json(path)
    digest = serialize.file_digest(path)
    if slot in inputs:
        prev = inputs[slot]
        inputs[slot] = ([prev] if isinstance(prev, str) else prev) + [digest]
    else:
        inputs[slot] = digest
    try:
        return build(obj, *context)
    except KeyError as exc:
        raise serialize.ParseError(f"{path}: missing key {exc}") from exc
    except InvalidArgument as exc:
        raise InvalidArgument(f"{path}: {exc}") from exc
    except (serialize.ParseError, TypeError, ValueError) as exc:
        raise serialize.ParseError(f"{path}: {exc}") from exc


def _load_group(args, inputs):
    return _load(args.group, inputs, "group", serialize.group_from_json)


def _load_set(args, G, inputs):
    return _load(args.set, inputs, "set", serialize.element_set_from_json, G)[1]


def _emit(report, args, inputs, tolerances):
    out = dict(report)
    out["version"] = __version__
    out["seed"] = args.seed
    out["tolerances"] = tolerances
    out["inputs"] = inputs
    try:
        text = json.dumps(out, sort_keys=True, indent=2, allow_nan=False)
    except ValueError:
        raise InvalidArgument("the report holds a value past the float range") from None
    print(text)
    return EXIT_OK


def cmd_validate(args):
    from .cocycles import validate as validate_cocycle

    inputs = {}
    G = _load_group(args, inputs)
    report = {"group": G.describe() if G.is_finite else {"kind": G.kind},
              "group_valid": True}
    code = EXIT_OK
    if args.cocycle:
        sigma = _load(args.cocycle, inputs, "cocycle", serialize.cocycle_from_json, G)
        vrep = validate_cocycle(G, sigma, seed=args.seed, tol=args.tol)
        report["cocycle"] = vrep.to_json()
        if not vrep.passed:
            code = EXIT_VALIDATION
    rc = _emit(report, args, inputs, {"cocycle_identity": args.tol})
    return code if code else rc


def cmd_norm(args):
    inputs = {}
    G = _load_group(args, inputs)
    sigma = _load(args.cocycle, inputs, "cocycle", serialize.cocycle_from_json, G)
    a = _load(args.element, inputs, "element", serialize.element_from_json, G)
    if args.mode == "exact":
        if not G.is_finite:
            raise Unsupported("exact norms need a finite group")
        est = {"mode": "exact", "value": exact_norm(G, sigma, a)}
    elif args.mode == "truncate":
        _progress(f"truncating at radius {args.radius}")
        est = {"mode": "truncate", "radius": args.radius,
               "lower": truncated_norm_lower(G, sigma, a, args.radius,
                                             mem_cap=args.mem_cap)}
    else:  # haagerup, the last of the modes argparse admits
        est = {"mode": "haagerup", "upper": haagerup_upper(G, a)}
    return _emit(est, args, inputs, {})


def cmd_transfer(args):
    inputs = {}
    G = _load_group(args, inputs)
    S = _load_set(args, G, inputs)
    sigmas = [_load(p, inputs, "cocycle", serialize.cocycle_from_json, G)
              for p in args.cocycle]
    rep = transfer_check(G, S, sigmas, seed=args.seed, tol=args.tol)
    code = EXIT_OK if rep.passed else EXIT_VALIDATION
    rc = _emit(rep.to_json(), args, inputs, {"transfer": args.tol})
    return code if code else rc


def cmd_specrad(args):
    inputs = {}
    G = _load_group(args, inputs)
    sigma = _load(args.cocycle, inputs, "cocycle", serialize.cocycle_from_json, G)
    a = _load(args.element, inputs, "element", serialize.element_from_json, G)
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
    t = _single_element(_load(args.element, inputs, "t", serialize.element_from_json, G))
    F = _load_set(args, G, inputs)
    cert = certify_free_subsemigroup(G, t, F, args.length, mem_cap=args.mem_cap)
    return _emit(cert.to_json(), args, inputs, {})


def cmd_criterion(args):
    inputs = {}
    G = _load_group(args, inputs)
    sigma = (_load(args.cocycle, inputs, "cocycle", serialize.cocycle_from_json, G)
             if args.cocycle else None)
    t = _single_element(_load(args.element, inputs, "t", serialize.element_from_json, G))
    F = _load_set(args, G, inputs)
    cfg = CriterionConfig(seed=args.seed, max_power=args.powers,
                          radius=args.radius, length=args.length,
                          mem_cap=args.mem_cap)
    rep = criterion_report(G, sigma, t, F, cfg)
    return _emit(rep, args, inputs, {})


def cmd_decompose(args):
    from .cocycles import IDENTITY_TOL
    from .crossed import CLUSTER_GAP, decompose_blocks

    inputs = {}
    G = _load_group(args, inputs)
    sigma = _load(args.cocycle, inputs, "cocycle", serialize.cocycle_from_json, G)
    dec = decompose_blocks(G, sigma, seed=args.seed)
    return _emit(dec.to_json(), args, inputs,
                 {"cluster_gap": CLUSTER_GAP, "cocycle_identity": IDENTITY_TOL})


def cmd_crossed(args):
    from .crossed import AXIOM_TOL, crossed_product_pipeline

    inputs = {}
    G = _load_group(args, inputs)
    sigma = _load(args.cocycle, inputs, "cocycle", serialize.cocycle_from_json, G)
    rep = crossed_product_pipeline(G, sigma, convention=args.convention,
                                   seed=args.seed)
    code = EXIT_OK if rep["axioms"]["passed"] else EXIT_VALIDATION
    rc = _emit(rep, args, inputs, {"axioms": AXIOM_TOL})
    return code if code else rc


class OneLineParser(argparse.ArgumentParser):
    """Usage errors as a single ``error:`` line and the validation exit code."""

    def error(self, message):
        print(f"error: {message}", file=sys.stderr)
        sys.exit(EXIT_VALIDATION)


def build_parser():
    p = OneLineParser(prog="twistlab", description="twisted group algebra numerics")
    p.add_argument("--version", action="version", version=__version__)
    sub = p.add_subparsers(dest="command", required=True, parser_class=OneLineParser)

    def add(name, fn, *flags):
        sp = sub.add_parser(name)
        sp.set_defaults(fn=fn)
        sp.add_argument("--group", required=True)
        for flag, kwargs in flags:
            sp.add_argument(flag, **kwargs)
        sp.add_argument("--seed", type=int, default=0)

    cocycle = ("--cocycle", {"required": True})
    optional_cocycle = ("--cocycle", {"default": None})
    element = ("--element", {"required": True})
    element_set = ("--set", {"required": True})
    radius = ("--radius", {"type": int, "default": 8})
    powers = ("--powers", {"type": int, "default": 12})
    length = ("--length", {"type": int, "default": 8})
    mem_cap = ("--mem-cap", {"type": int, "default": DEFAULT_MEM_CAP})
    tol = ("--tol", {"type": float, "default": 1e-9})

    add("validate", cmd_validate, optional_cocycle, tol)
    add("norm", cmd_norm, cocycle, element,
        ("--mode", {"choices": ["exact", "truncate", "haagerup"], "required": True}),
        radius, mem_cap)
    add("transfer", cmd_transfer, ("--cocycle", {"action": "append", "required": True}),
        element_set, tol)
    add("specrad", cmd_specrad, cocycle, element, powers, mem_cap)
    add("semigroup", cmd_semigroup, element, element_set, length, mem_cap)
    add("criterion", cmd_criterion, optional_cocycle, element, element_set,
        powers, radius, length, mem_cap)
    add("decompose", cmd_decompose, cocycle)
    add("crossed", cmd_crossed, cocycle,
        ("--convention", {"choices": ["as-printed", "conjugated"], "default": "conjugated"}))
    return p


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    for dest, low in COUNT_MINIMUM.items():
        value = getattr(args, dest, low)
        if value < low:
            flag = "--" + dest.replace("_", "-")
            print(f"error: {flag} must be >= {low}, got {value}", file=sys.stderr)
            return EXIT_VALIDATION
    tol = getattr(args, "tol", 0.0)
    if not 0 <= tol <= sys.float_info.max:
        print(f"error: --tol must be a finite number >= 0, got {tol}", file=sys.stderr)
        return EXIT_VALIDATION
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
