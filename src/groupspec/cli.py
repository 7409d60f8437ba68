"""Command line front end.

All commands emit canonical JSON on stdout (sorted keys, no spaces, integers
above 2^53 - 1 rendered as strings so consumers that parse into doubles do
not lose digits); --pretty switches to a short human-readable rendering.

Group grammar: FAMILY(dim,q) where dim is the matrix dimension and q the
field size, e.g. PSL(3,5), PSU(4,3), Sp(4,3), OmegaOdd(7,3), POmega+(8,3).
The symbols, and the dimension each takes, are the rows of spectra.SYMBOLS.

Settings precedence: flags, then GROUPSPEC_* environment variables, then the
JSON config file named by GROUPSPEC_CONFIG, then built-in defaults.

Exit codes: 0 success/PASS, 1 verification FAIL, 2 usage or parse error,
3 enumeration bound or closed-form table bound exceeded.
"""

from __future__ import annotations

import argparse
import json
import os
import re
import sys

from .arith import (DEFAULT_ENUM_BOUND, BoundError, UsageError, load_factor_cache,
                    odd_prime_power, save_factor_cache)
from .spectra import SYMBOLS, GroupSpec, TableBoundError, spectrum

DEFAULTS = {"seed": 0, "threads": 1, "enum_bound": DEFAULT_ENUM_BOUND,
            "samples": 100_000, "cache": None}
ENV_PREFIX = "GROUPSPEC_"
BIG_INT = 2 ** 53 - 1


class ParseError(UsageError):
    def __init__(self, text: str, pos: int, msg: str):
        super().__init__(f"{msg} at position {pos}: {text!r}")
        self.pos = pos


def parse_group(text: str):
    """Grammar string -> (GroupSpec, canonical string). Dim comes first."""
    s, k = text, 0
    while k < len(s) and s[k] == " ":
        k += 1
    for row in SYMBOLS:
        if s.startswith(row[0], k):
            break
    else:
        raise ParseError(text, k, "unknown family name")
    token, family, eps, a, b, _ = row
    k += len(token)

    def skip():
        nonlocal k
        while k < len(s) and s[k] == " ":
            k += 1

    def expect(ch: str):
        nonlocal k
        skip()
        if k >= len(s) or s[k] != ch:
            raise ParseError(text, k, f"expected {ch!r}")
        k += 1

    def number(what: str) -> int:
        nonlocal k
        skip()
        j = k
        while j < len(s) and s[j].isdigit():
            j += 1
        if j == k:
            raise ParseError(text, k, f"expected {what}")
        val = int(s[k:j])
        k = j
        return val

    expect("(")
    dim = number("dimension")
    expect(",")
    q = number("field size")
    expect(")")
    skip()
    if k != len(s):
        raise ParseError(text, k, "trailing input")

    p, m = odd_prime_power(q)
    n, rest = divmod(dim - b, a)
    if rest:
        raise UsageError(f"{token} needs {'odd' if b else 'even'} dimension, got {dim}")
    return GroupSpec(family, n, p, m, eps), f"{token}({dim},{q})"


def parse_out_word(word: str, spec: GroupSpec):
    """Outer element word "d^i f^a t^c" (letters at most once, any order),
    as an OutElement."""
    from .outer import OutElement
    base = dict(eps=spec.eps, n=spec.n, p=spec.p, m=spec.m)
    w = word.strip()
    if not w:
        raise UsageError("empty outer word (the identity is spelled 1)")
    if w == "1":
        return OutElement(a=0, c=0, i=0, **base)
    exps = {}
    for tok in w.split():
        mt = re.fullmatch(r"([dft])(?:\^(-?\d+))?", tok)
        if mt is None:
            raise UsageError(f"bad outer word token {tok!r}")
        letter = mt.group(1)
        if letter in exps:
            raise UsageError(f"letter {letter!r} repeated in outer word")
        exps[letter] = int(mt.group(2) or 1)
    return OutElement(a=exps.get("f", 0), c=exps.get("t", 0),
                      i=exps.get("d", 0), **base)


def _shrink(obj):
    """Ints beyond the double-safe range become strings, recursively."""
    if isinstance(obj, bool):
        return obj
    if isinstance(obj, int):
        return str(obj) if abs(obj) > BIG_INT else obj
    if isinstance(obj, float):
        return obj
    if isinstance(obj, (list, tuple)):
        return [_shrink(x) for x in obj]
    if isinstance(obj, dict):
        return {str(k): _shrink(v) for k, v in obj.items()}
    return obj


def emit(payload: dict, pretty_lines, pretty: bool) -> None:
    if pretty:
        sys.stdout.write("\n".join(pretty_lines) + "\n")
    else:
        sys.stdout.write(json.dumps(_shrink(payload), sort_keys=True,
                                    separators=(",", ":")) + "\n")


def resolve_settings(args) -> dict:
    cfg = dict(DEFAULTS)
    path = os.environ.get(ENV_PREFIX + "CONFIG")
    if path:
        try:
            with open(path) as fh:
                data = json.load(fh)
        except (OSError, ValueError) as exc:
            raise UsageError(f"config file {path}: {exc}")
        for key in DEFAULTS:
            if key in data:
                cfg[key] = data[key]
    for key in ("seed", "threads", "enum_bound", "samples"):
        env = os.environ.get(ENV_PREFIX + key.upper())
        if env is not None:
            try:
                cfg[key] = int(env)
            except ValueError:
                raise UsageError(f"{ENV_PREFIX}{key.upper()} must be an integer")
    env = os.environ.get(ENV_PREFIX + "CACHE")
    if env is not None:
        cfg["cache"] = env
    for key in DEFAULTS:
        val = getattr(args, key, None)
        if val is not None:
            cfg[key] = val
    for key in ("threads", "enum_bound", "samples"):
        if not isinstance(cfg[key], int) or cfg[key] < 1:
            raise UsageError(f"{key} must be a positive integer")
    if not isinstance(cfg["seed"], int):
        raise UsageError("seed must be an integer")
    return cfg


def cmd_spectrum(args, cfg):
    spec, shown = parse_group(args.group)
    sp = spectrum(spec)
    payload = {"spec": shown, "generators": list(sp.generators)}
    lines = [f"{shown} maximal orders: " + " ".join(map(str, sp.generators))]
    if spec.family in ("OmegaEven", "POmegaEven"):
        payload["part"] = "p_prime"
        lines[0] += "  (p' part only)"
    return payload, lines, 0


def _piece_lines(pieces) -> list:
    """--pretty lines for the to_jsonable() pieces of a coset spectrum."""
    return [f"  x{pc['multiplier']}: " + " ".join(map(str, pc["generators"]))
            + (f"  [{pc['constraint']}]" if pc["constraint"] != "none" else "")
            for pc in pieces]


def cmd_coset_spectrum(args, cfg):
    from .coset import (UNSUPPORTED, extension_spectrum, field_coset_spectrum,
                        graph_coset, graph_coset_pgl_even)
    spec, shown = parse_group(args.group)
    if spec.family not in ("PSL", "PGL"):
        raise UsageError("coset spectra are defined for PSL/PGL/PSU/PGU")
    if args.generator is not None and args.field_k is not None:
        raise UsageError("--generator and --field-k are mutually exclusive")
    if args.field_k is None and (args.diag or args.variant):
        raise UsageError("--diag/--variant require --field-k")

    if args.generator is not None:
        gen = parse_out_word(args.generator, spec)
        result = extension_spectrum(gen)
        payload = {"spec": shown, "generator": str(gen),
                   "generator_order": gen.order()}
        if result is UNSUPPORTED:
            payload["supported"] = False
            return payload, [f"{shown} . <{gen}>: unsupported coset"], 0
        payload["pieces"] = result.to_jsonable()
        payload["maxima"] = list(result.maximal_elements())
        lines = [f"{shown} . <{gen}> spectrum maxima: "
                 + " ".join(map(str, payload["maxima"]))]
        return payload, lines, 0

    if args.field_k is not None:
        variant = args.variant or "plain"
        result = field_coset_spectrum(spec.n, spec.q, spec.eps,
                                      args.diag, args.field_k, variant)
        payload = {"spec": shown, "field_k": args.field_k,
                   "diag": args.diag, "variant": variant}
        if result is UNSUPPORTED:
            payload["supported"] = False
            return payload, ["unsupported coset"], 0
        payload["pieces"] = result.to_jsonable()
        lines = [f"{shown} field coset k={args.field_k} diag={args.diag} ({variant}):",
                 *_piece_lines(payload["pieces"])]
        return payload, lines, 0

    if spec.eps != 1:
        raise UsageError("the graph coset formula covers eps = +1; "
                         "unitary cosets go through --generator")
    dim = spec.n
    if spec.family == "PGL" and dim % 2 == 0:
        coset = graph_coset_pgl_even(dim, spec.q)
    else:
        coset = graph_coset(dim, spec.q)
    payload = {"spec": shown, "coset": "graph", "pieces": coset.to_jsonable()}
    lines = [f"graph coset of {shown}:", *_piece_lines(payload["pieces"])]
    return payload, lines, 0


def cmd_tau_test(args, cfg):
    from .coset import tau_criterion
    spec, shown = parse_group(args.group)
    if spec.family != "PSL":
        raise UsageError("the tau test covers PSL/PSU only")
    res = tau_criterion(spec.n, spec.q, spec.eps)
    payload = {"spec": shown, "verdict": res.verdict, "case": res.case,
               "witness": res.witness,
               "all_triggered_cases": [list(t) for t in res.triggered]}
    if res.verdict == "equal":
        lines = [f"{shown}: Equal (tau coset adds no new orders)"]
    else:
        lines = [f"{shown}: Witness case {res.case}, value {res.witness}"]
        if len(res.triggered) > 1:
            lines.append("also triggered: "
                         + "; ".join(f"case {c}: {w}" for c, w in res.triggered[1:]))
    return payload, lines, 0


def cmd_admissible(args, cfg):
    from .outer import admissible_generators
    spec, shown = parse_group(args.group)
    if spec.family != "PSL":
        raise UsageError("admissibility reports cover PSL/PSU only")
    rep = admissible_generators(spec)
    payload = {
        "spec": shown, "d": rep.d, "b": rep.b,
        "eta": str(rep.eta), "phi_hat": str(rep.phi_hat), "psi": str(rep.psi),
        "tau_verdict": rep.tau.verdict,
        "generators": [str(g) for g in rep.generators],
        "rows": list(rep.rows),
        "diagnostics": list(rep.diagnostics),
        "class_total": rep.class_total,
        "class_nontrivial": rep.class_nontrivial,
    }
    lines = [f"{shown}: d={rep.d} b={rep.b} tau={rep.tau.verdict}",
             "maximal admissible generators: "
             + (", ".join(str(g) for g in rep.generators) or "(none)")]
    if rep.class_total is not None:
        lines.append(f"admissible classes: {rep.class_total} total, "
                     f"{rep.class_nontrivial} nontrivial")
    for d in rep.diagnostics:
        lines.append(f"note: {d}")
    return payload, lines, 0


def cmd_verify(args, cfg):
    from .oracle import check_enum_bound, check_order_kind, verify_target
    spec, shown = parse_group(args.group)
    kind = args.order_kind
    mode = args.mode

    tau = kind in ("tau_coset", "tau_delta_coset")
    if tau and (spec.family not in ("PSL", "PGL") or spec.eps != 1):
        raise UsageError("tau coset verification covers PSL/PGL over eps = +1")
    # the oracle's refusals that need no matrices, made before numpy loads
    if kind == "tau_delta_coset":
        if mode == "full":
            raise UsageError("the tau delta probe is sampling-only")
        check_order_kind("GL", spec.n, spec.q, kind)
    else:
        group = "GL" if tau else verify_target(spec, kind)[0]
        if (mode or "full") == "full":
            check_enum_bound(group, spec.dimension, spec.q, cfg["enum_bound"])

    from .oracle.spectrum import tau_delta_probe, verify_group, verify_tau_coset
    if kind == "tau_delta_coset":
        report = tau_delta_probe(spec.n, spec.q, samples=cfg["samples"], seed=cfg["seed"], threads=cfg["threads"])
    elif kind == "tau_coset":
        report = verify_tau_coset(spec.n, spec.q, mode=mode or "full", samples=cfg["samples"], seed=cfg["seed"], enum_bound=cfg["enum_bound"], threads=cfg["threads"])
    else:
        report = verify_group(spec, mode=mode or "full", samples=cfg["samples"], seed=cfg["seed"], enum_bound=cfg["enum_bound"], threads=cfg["threads"], order_kind=kind)

    if not args.pretty:
        # wall clock would break byte-for-byte output stability
        report.pop("elapsed_s", None)
    payload = {"spec": shown, **report}
    verdict = report["verdict"]
    lines = [f"{verdict}: {report.get('target', shown)} "
             f"[{report['mode']}, {report['order_kind']}, "
             f"sampler {report['sampler']}]"]
    if report.get("violations"):
        lines.append("violations: " + " ".join(map(str, report["violations"])))
    if report.get("missing"):
        lines.append("missing: " + " ".join(map(str, report["missing"])))
    if kind == "tau_delta_coset":
        lines.append("new values: " + " ".join(map(str, report["new_values"])))
    return payload, lines, 0 if verdict == "PASS" else 1


def cmd_gamma_check(args, cfg):
    import numpy as np
    from .oracle.field import FiniteField
    from .oracle.wall import det_square_class, wall_check
    q = args.q
    if q is None:
        raise UsageError("gamma-check needs --q")
    F = FiniteField(*odd_prime_power(q))
    rows = []
    for chunk in args.matrix.split(";"):
        entries = [e for e in re.split(r"[,\s]+", chunk.strip()) if e]
        try:
            rows.append([int(e) for e in entries])
        except ValueError:
            raise UsageError(f"matrix entries must be integers: {chunk!r}")
    n = len(rows)
    if any(len(r) != n for r in rows):
        raise UsageError("matrix must be square (semicolon-separated rows)")
    if any(not 0 <= e < q for r in rows for e in r):
        raise UsageError(f"matrix entries must lie in [0, {q})")
    h = np.array(rows, np.int16)
    # one Smith form answers every question but the determinant class
    wall = wall_check(F, h)
    sq = det_square_class(F, h)
    payload = {
        "q": q, "n": n,
        "in_gamma": bool(wall["in_gamma"]),
        "conjugate_to_inverse": bool(wall["conjugate_to_inverse"]),
        "det_square_class": "square" if sq == 1 else "nonsquare",
        "partition_plus": sorted(([k, v] for k, v in wall["partition_plus"].items()),
                                 reverse=True),
        "partition_minus": sorted(([k, v] for k, v in wall["partition_minus"].items()),
                                  reverse=True),
    }
    lines = [f"in Gamma: {'yes' if payload['in_gamma'] else 'no'}",
             f"conjugate to inverse: {'yes' if payload['conjugate_to_inverse'] else 'no'}",
             f"determinant class: {payload['det_square_class']}",
             f"partition at +1: {payload['partition_plus']}",
             f"partition at -1: {payload['partition_minus']}"]
    return payload, lines, 0


def build_parser() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--seed", type=int, default=None)
    common.add_argument("--threads", type=int, default=None)
    common.add_argument("--enum-bound", dest="enum_bound", type=int, default=None)
    common.add_argument("--samples", type=int, default=None)
    common.add_argument("--cache", default=None)
    fmt = common.add_mutually_exclusive_group()
    fmt.add_argument("--json", action="store_true", default=False)
    fmt.add_argument("--pretty", action="store_true", default=False)

    top = argparse.ArgumentParser(prog="groupspec",
                                  description=__doc__.splitlines()[0])
    sub = top.add_subparsers(dest="command", required=True)

    sp = sub.add_parser("spectrum", parents=[common],
                        help="maximal element orders of a group")
    sp.add_argument("group")
    sp.set_defaults(func=cmd_spectrum)

    cs = sub.add_parser("coset-spectrum", parents=[common],
                        help="spectrum of an outer automorphism coset")
    cs.add_argument("group")
    cs.add_argument("--generator", default=None,
                    help='outer element word, e.g. "t", "f^2 t", "d^2"')
    cs.add_argument("--field-k", dest="field_k", type=int, default=None,
                    help="order of the field part: coset (d^diag f^(m/k)) L")
    cs.add_argument("--variant", choices=("plain", "graph"), default=None)
    cs.add_argument("--diag", type=int, default=0)
    cs.set_defaults(func=cmd_coset_spectrum)

    tt = sub.add_parser("tau-test", parents=[common],
                        help="does the inverse-transpose coset add orders")
    tt.add_argument("group")
    tt.set_defaults(func=cmd_tau_test)

    ad = sub.add_parser("admissible", parents=[common],
                        help="outer automorphisms preserving the spectrum")
    ad.add_argument("group")
    ad.set_defaults(func=cmd_admissible)

    vf = sub.add_parser("verify", parents=[common],
                        help="check a formula against the matrix oracle")
    vf.add_argument("group")
    vf.add_argument("--mode", choices=("full", "sample"), default=None)
    vf.add_argument("--order-kind", dest="order_kind", default=None,
                    choices=("plain", "projective", "tau_coset", "tau_delta_coset"))
    vf.set_defaults(func=cmd_verify)

    gc = sub.add_parser("gamma-check", parents=[common],
                        help="Wall criterion membership for one matrix")
    gc.add_argument("matrix", help='rows split by ";", entries by spaces or commas')
    gc.add_argument("--q", type=int, default=None)
    gc.set_defaults(func=cmd_gamma_check)
    return top


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        cfg = resolve_settings(args)
        if cfg["cache"]:
            folder = os.path.dirname(cfg["cache"]) or "."
            if not os.path.isdir(folder):
                raise UsageError(f"factor cache directory {folder} does not exist")
            if os.path.exists(cfg["cache"]):
                load_factor_cache(cfg["cache"])
        payload, lines, code = args.func(args, cfg)
        emit(payload, lines, args.pretty)
        if cfg["cache"]:
            save_factor_cache(cfg["cache"])
        return code
    except TableBoundError as exc:
        print(f"error: {exc} (no closed form is computed at this size, and no flag "
              "raises the bound)", file=sys.stderr)
        return 3
    except BoundError as exc:
        print(f"error: {exc} (retry with --mode sample, or raise --enum-bound)",
              file=sys.stderr)
        return 3
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
