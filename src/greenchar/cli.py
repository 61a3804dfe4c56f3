"""Command-line front end: tables, root-of-unity values, verification runs.

Subcommands: green (polynomial table), eval (values at roots of unity,
with coset counts alongside when a block configuration is given),
verify (dispatch one named check or every applicable one), regular
(catalog twist lookup), config-validate (classify a configuration).

Output goes to stdout.  The json format is canonical: sorted keys,
compact separators, so parse and re-dump reproduces the bytes.  Table
values are decimal strings (exact, unbounded); polynomial coefficient
arrays stay numeric with index equal to exponent.  Exit codes: 0 all
dispatched work passed, 1 a check failed, 2 the request was invalid.
"""

import argparse
import csv
import json
import os
import sys
from collections import Counter

from .poly import eval_at_root, render_terms
from .rootsys import build_root_system, levi_config
from .symfun import Partition, partitions_of, springer_graded_char
from .verify import (
    ALL_CHECKS,
    VerificationReport,
    _config_echo,
    check_regular_catalog,
    check_ungraded_induction,
    class_representative,
)
from .weyl import (
    InductionConfig,
    InvalidConfigError,
    block_shift_element,
    coset_count,
    eigenspace,
    is_L_regular,
    l_regular_config,
    regular_element,
    validate_config,
)

DEFAULT_BOUND = 10
BOUND_ENV = "GREENCHAR_BOUND"

# checks that consume a block configuration, in dispatch order for --check all
CONFIG_CHECKS = ("twisted-induction", "component-dims", "roots-of-unity",
                 "mod-e-induction", "component-induction")


# ---------------------------------------------------------------------------
# argument grammar


def partition_arg(text: str) -> Partition:
    try:
        parts = tuple(sorted((int(x) for x in text.split(",") if x.strip()),
                             reverse=True))
        return Partition(parts)
    except ValueError as exc:
        raise argparse.ArgumentTypeError(f"bad partition {text!r}: {exc}")


def positive_int(text: str) -> int:
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"not an integer: {text!r}")
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be positive, got {value}")
    return value


def labels_arg(text: str):
    try:
        return tuple(int(x) for x in text.split(",") if x.strip())
    except ValueError:
        raise argparse.ArgumentTypeError(f"bad index list {text!r}")


def enumeration_bound(args) -> int:
    if getattr(args, "bound", None) is not None:
        return args.bound
    return int(os.environ.get(BOUND_ENV, DEFAULT_BOUND))


def require_letters_within_bound(n: int, args):
    """The one letter cap, shared by green, eval and the letter requests
    of verify; above it the request is invalid (exit 2)."""
    bound = enumeration_bound(args)
    if n > bound:
        raise ValueError(f"n = {n} exceeds the enumeration bound {bound}")


def fixed_block_type(mu: Partition, nus, e: int):
    """What is left of mu after removing e copies of every rotating
    type; None when nothing is left."""
    remaining = Counter(tuple(mu))
    for nu in nus:
        for part in nu:
            remaining[part] -= e
    if any(v < 0 for v in remaining.values()):
        raise InvalidConfigError(
            f"types {[tuple(nu) for nu in nus]} taken {e} times each do not "
            f"fit inside mu={tuple(mu)}")
    parts = tuple(sorted(remaining.elements(), reverse=True))
    return Partition(parts) if parts else None


def build_block_config(args) -> InductionConfig:
    """Configuration from the flags.

    With --n the shape is a distinguished trailing block of the single
    --nu type and the catalog twist on the remaining letters.  Without
    it, each --nu gives a family of e rotating blocks, preceded by one
    fixed block holding whatever --mu leaves over.
    """
    e = getattr(args, "e", None)
    if e is None:
        raise InvalidConfigError("--e is required here")
    nus = list(getattr(args, "nu", None) or [])
    n_flag = getattr(args, "n", None)
    if n_flag is not None:
        if len(nus) != 1:
            raise InvalidConfigError(
                "the regular-twist shape takes exactly one --nu, the type "
                "of the distinguished block")
        cfg = l_regular_config(n_flag, nus[0].size, e, nu=nus[0],
                               variant=getattr(args, "variant", "a"))
        validate_config(cfg)
        return cfg
    if not nus:
        raise InvalidConfigError(
            "need --nu (one per rotating family), or --n to place the "
            "twist on free letters")
    fixed = None
    mu_flag = getattr(args, "mu", None)
    if mu_flag is not None:
        fixed = fixed_block_type(mu_flag, nus, e)
    blocks = []
    types = []
    start = 1
    if fixed is not None:
        blocks.append(tuple(range(1, fixed.size + 1)))
        types.append(fixed)
        start = fixed.size + 1
    for nu in nus:
        for _ in range(e):
            blocks.append(tuple(range(start, start + nu.size)))
            types.append(nu)
            start += nu.size
    a = block_shift_element(tuple(blocks), e)
    cfg = InductionConfig(n=start - 1, e=e, blocks=tuple(blocks),
                          block_types=tuple(types), a=a)
    validate_config(cfg)
    return cfg


# ---------------------------------------------------------------------------
# rendering


def cycle_notation(w) -> str:
    """Cycles on moved letters; a leading minus marks a negative cycle."""
    return "".join(f"({'-' if sign < 0 else ''}{','.join(map(str, letters))})"
                   for letters, sign in w.signed_cycles()
                   if len(letters) > 1 or sign < 0) or "()"


def part_text(rho) -> str:
    return ",".join(str(p) for p in rho)


def canonical_json(payload) -> str:
    return json.dumps(payload, sort_keys=True, separators=(",", ":"))


def emit_table(args, payload, columns, rows, title: str):
    if args.format == "json":
        print(canonical_json(payload))
    elif args.format == "csv":
        writer = csv.writer(sys.stdout, lineterminator="\n")
        writer.writerow(columns)
        writer.writerows(rows)
    else:
        print(title)
        widths = [max([len(col)] + [len(r[i]) for r in rows])
                  for i, col in enumerate(columns)]
        print("  ".join(col.ljust(w) for col, w in zip(columns, widths)).rstrip())
        for r in rows:
            print("  ".join(cell.ljust(w) for cell, w in zip(r, widths)).rstrip())


def report_payload(rep: VerificationReport) -> dict:
    witnesses = []
    for item in rep.counterexamples:
        klass, index, lhs, rhs = item
        witnesses.append({
            "class": list(klass) if isinstance(klass, tuple) else klass,
            "index": list(index) if isinstance(index, tuple) else index,
            "lhs": lhs if isinstance(lhs, bool) else str(lhs),
            "rhs": rhs if isinstance(rhs, bool) else str(rhs),
        })
    return {"check": rep.check, "config": rep.config, "status": rep.status,
            "counterexamples": witnesses, "elapsed_ms": rep.elapsed_ms,
            "notes": rep.notes}


# ---------------------------------------------------------------------------
# subcommands


def cmd_green(args) -> int:
    mu = args.mu
    n = mu.size
    if args.n is not None and args.n != n:
        print(f"error: --n {args.n} does not match |mu| = {n}", file=sys.stderr)
        return 2
    require_letters_within_bound(n, args)
    g = springer_graded_char(mu)
    classes = list(partitions_of(n))
    payload = {"command": "green", "mu": list(mu), "n": n,
               "rows": [{"class": list(rho), "coeffs": list(g[rho].coeffs)}
                        for rho in classes]}
    if args.format == "csv":
        rows = [[part_text(rho), " ".join(str(c) for c in g[rho].coeffs)]
                for rho in classes]
    else:
        rows = [[f"({part_text(rho)})", render_terms(g[rho].coeffs, "q")]
                for rho in classes]
    emit_table(args, payload, ["class", "polynomial"], rows,
               f"Green polynomials for mu=({part_text(mu)}), one row per class")
    return 0


def cmd_eval(args) -> int:
    mu = args.mu
    n = mu.size
    e = args.e
    require_letters_within_bound(n, args)
    exponents = [args.j % e] if args.j is not None else list(range(e))
    cfg = None
    if args.nu:
        cfg = build_block_config(args)
        if tuple(cfg.merged_type()) != tuple(mu):
            raise InvalidConfigError(
                f"blocks merge to {tuple(cfg.merged_type())}, not {tuple(mu)}")
    failed = False
    g = springer_graded_char(mu)
    classes = list(partitions_of(n))
    json_rows = []
    rows = []
    for rho in classes:
        values = [eval_at_root(g[rho], e, j) for j in exponents]
        cells = [render_terms(v.coords, "z") for v in values]
        json_row = {"class": list(rho), "values": cells}
        row = [f"({part_text(rho)})" if args.format != "csv" else part_text(rho)]
        row.extend(cells)
        if cfg is not None:
            w = class_representative(rho)
            counts = [coset_count(w, cfg, j) for j in exponents]
            ok = all(v.is_rational and v.as_fraction() == c
                     for v, c in zip(values, counts))
            json_row["counts"] = [str(c) for c in counts]
            json_row["match"] = ok
            row.extend(str(c) for c in counts)
            row.append("ok" if ok else "MISMATCH")
            failed = failed or not ok
        json_rows.append(json_row)
        rows.append(row)
    payload = {"command": "eval", "mu": list(mu), "n": n, "e": e,
               "j": exponents, "rows": json_rows}
    columns = ["class"] + [f"j={j}" for j in exponents]
    if cfg is not None:
        payload["config"] = _config_echo(cfg)
        payload["status"] = "fail" if failed else "pass"
        columns += [f"count j={j}" for j in exponents] + ["match"]
    emit_table(args, payload, columns, rows,
               f"Values at {e}-th roots for mu=({part_text(mu)})")
    return 1 if failed else 0


def _skipped(name: str, cfg, exc) -> VerificationReport:
    return VerificationReport(check=name, config=_config_echo(cfg),
                              status="skipped", counterexamples=[],
                              elapsed_ms=0.0, notes=str(exc))


def run_checks(args):
    name = args.check
    if name == "regular-catalog":
        return [check_regular_catalog(args.family, args.rank)]
    if name == "ungraded-induction":
        nus = list(args.nu or [])
        if not nus:
            raise InvalidConfigError("ungraded-induction needs --nu per block")
        n = args.n if args.n is not None else sum(nu.size for nu in nus)
        require_letters_within_bound(n, args)
        return [check_ungraded_induction(n, [tuple(nu) for nu in nus])]
    if name == "closed-form-count":
        nus = list(args.nu or [])
        if len(nus) != 1 or len(nus[0]) != 1:
            raise InvalidConfigError(
                "closed-form-count takes one one-row --nu, the block size")
        if args.e is None:
            raise InvalidConfigError("--e is required here")
        return [ALL_CHECKS[name](nus[0][0], args.e)]
    cfg = build_block_config(args)
    require_letters_within_bound(cfg.n, args)
    if name == "all":
        reports = []
        for check_name in CONFIG_CHECKS:
            try:
                reports.append(ALL_CHECKS[check_name](cfg))
            except ValueError as exc:
                reports.append(_skipped(check_name, cfg, exc))
        return reports
    return [ALL_CHECKS[name](cfg)]


def cmd_verify(args) -> int:
    reports = run_checks(args)
    if args.format == "json":
        if len(reports) == 1:
            print(canonical_json(report_payload(reports[0])))
        else:
            print(canonical_json([report_payload(r) for r in reports]))
    else:
        columns = ["check", "status", "witnesses", "elapsed_ms", "notes"]
        rows = [[r.check, r.status, json.dumps(r.counterexamples),
                 f"{r.elapsed_ms:.1f}", r.notes] for r in reports]
        emit_table(args, None, columns, rows,
                   f"verify: {reports[0].config}")
    return 0 if all(r.status in ("pass", "skipped") for r in reports) else 1


def cmd_regular(args) -> int:
    a = regular_element(args.family, args.rank, args.e, args.variant)
    rs = build_root_system(args.family, args.rank)
    lv = levi_config(rs, args.pi_L or ())
    regular = is_L_regular(a, args.e, lv)
    dim = len(eigenspace(a, args.e, 1))
    element = cycle_notation(a)
    payload = {"command": "regular", "family": args.family, "rank": args.rank,
               "e": args.e, "variant": args.variant,
               "pi_L": list(args.pi_L or ()), "element": element,
               "perm": list(a.perm), "order": a.order(),
               "regular": regular, "eigenspace_dim": dim}
    if args.format == "json":
        print(canonical_json(payload))
    elif args.format == "csv":
        writer = csv.writer(sys.stdout, lineterminator="\n")
        writer.writerow(["element", "order", "regular", "eigenspace_dim"])
        writer.writerow([element, a.order(), regular, dim])
    else:
        word = "regular" if regular else "not regular"
        if args.pi_L:
            word = ("L-regular" if regular else "not L-regular") \
                + f" for pi_L={part_text(args.pi_L)}"
        print(f"{element}, {word}, a(e)={dim}")
    return 0


def cmd_config_validate(args) -> int:
    cfg = build_block_config(args)
    shape = validate_config(cfg)
    payload = {"command": "config-validate", "shape": shape,
               "config": _config_echo(cfg)}
    if args.format == "json":
        print(canonical_json(payload))
    elif args.format == "csv":
        writer = csv.writer(sys.stdout, lineterminator="\n")
        writer.writerow(["shape", "config"])
        writer.writerow([shape, _config_echo(cfg)])
    else:
        print(f"valid ({shape}): {_config_echo(cfg)}")
    return 0


# ---------------------------------------------------------------------------
# parser and entry point


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="greenchar",
        description="Exact Green polynomial tables, root-of-unity values, "
                    "and induction checks.")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--format", choices=("json", "csv", "text"),
                       default="text")

    p_green = sub.add_parser("green", help="Green polynomial table for one "
                                           "Jordan type")
    p_green.add_argument("--mu", type=partition_arg, required=True)
    p_green.add_argument("--n", type=int)
    p_green.add_argument("--bound", type=int,
                         help=f"enumeration cap, default {DEFAULT_BOUND} "
                              f"(env {BOUND_ENV})")
    common(p_green)
    p_green.set_defaults(func=cmd_green)

    p_eval = sub.add_parser("eval", help="values at roots of unity, with "
                                         "coset counts when --nu is given")
    p_eval.add_argument("--mu", type=partition_arg, required=True)
    p_eval.add_argument("--e", type=positive_int, required=True)
    p_eval.add_argument("--j", type=int)
    p_eval.add_argument("--nu", type=partition_arg, action="append",
                        help="rotating block type; repeat for several "
                             "families; the part of --mu left over sits on "
                             "a fixed block")
    p_eval.add_argument("--bound", type=int)
    common(p_eval)
    p_eval.set_defaults(func=cmd_eval)

    p_verify = sub.add_parser("verify", help="run one named check, or every "
                                             "applicable one")
    p_verify.add_argument("--check", required=True,
                          choices=tuple(ALL_CHECKS) + ("all",))
    p_verify.add_argument("--n", type=int,
                          help="selects the regular-twist shape: one "
                               "distinguished block of type --nu, catalog "
                               "twist on the other letters")
    p_verify.add_argument("--mu", type=partition_arg,
                          help="merged type; the part not covered by the "
                               "rotating blocks sits on a fixed block")
    p_verify.add_argument("--nu", type=partition_arg, action="append")
    p_verify.add_argument("--e", type=positive_int)
    p_verify.add_argument("--variant", default="a")
    p_verify.add_argument("--family", help="restrict regular-catalog")
    p_verify.add_argument("--rank", type=int, help="restrict regular-catalog")
    common(p_verify)
    p_verify.set_defaults(func=cmd_verify)

    p_regular = sub.add_parser("regular", help="catalog twist for a family "
                                               "and rank")
    p_regular.add_argument("--family", required=True)
    p_regular.add_argument("--rank", type=int, required=True)
    p_regular.add_argument("--e", type=positive_int, required=True)
    p_regular.add_argument("--variant", default="a")
    p_regular.add_argument("--pi-L", dest="pi_L", type=labels_arg,
                           help="test regularity relative to this parabolic "
                                "instead of the full group")
    common(p_regular)
    p_regular.set_defaults(func=cmd_regular)

    p_validate = sub.add_parser("config-validate",
                                help="classify a block configuration")
    p_validate.add_argument("--n", type=int)
    p_validate.add_argument("--mu", type=partition_arg)
    p_validate.add_argument("--nu", type=partition_arg, action="append")
    p_validate.add_argument("--e", type=positive_int)
    p_validate.add_argument("--variant", default="a")
    common(p_validate)
    p_validate.set_defaults(func=cmd_config_validate)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (InvalidConfigError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
