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

Every request runs in a fresh interpreter, so this module imports no
other greenchar module at load time; each subcommand imports what it
uses.  green, and eval without --nu, load symfun and poly only.  eval
with --nu and config-validate add weyl, which decides a block
configuration on letters; regular adds rootsys and weyl.  verify loads
verify and weyl, and rootsys only for regular-catalog.  json is
imported only where json is written.
"""

import argparse
import os
import sys
from functools import partial

DEFAULT_BOUND = 10
BOUND_ENV = "GREENCHAR_BOUND"

# the largest order eval takes: its values cost about e^2 per class, and
# the largest request within the default letter cap, mu = (1^10) at
# e = 200, answers in about a second
EVAL_MAX_E = 200

# the keys of verify.ALL_CHECKS in its order, spelled out so that parsing a
# request does not import verify
CHECKS = ("twisted-induction", "component-dims", "roots-of-unity",
          "mod-e-induction", "component-induction", "ungraded-induction",
          "closed-form-count", "regular-catalog")

# checks that consume a block configuration, in dispatch order for --check all
CONFIG_CHECKS = ("twisted-induction", "component-dims", "roots-of-unity",
                 "mod-e-induction", "component-induction")

# the flags each request reads: the three checks that take no block
# configuration, then a configuration in either shape (--n selects the
# regular-twist shape); any other flag given exits 2 instead of being
# ignored
READS = {
    "regular-catalog": ("family", "rank"),
    "ungraded-induction": ("n", "nu"),
    "closed-form-count": ("nu", "e"),
    "with --n": ("n", "nu", "e", "variant"),
    "without --n": ("mu", "nu", "e"),
}


# ---------------------------------------------------------------------------
# argument grammar


def partition_arg(text: str):
    from .symfun import Partition
    try:
        parts = tuple(sorted((int(x) for x in text.split(",") if x.strip()),
                             reverse=True))
        return Partition(parts)
    except ValueError as exc:
        raise argparse.ArgumentTypeError(f"bad partition {text!r}: {exc}")


def block_type_arg(text: str):
    """A --nu block type: a partition of at least one letter."""
    nu = partition_arg(text)
    if not nu:
        raise argparse.ArgumentTypeError(f"empty block type {text!r}")
    return nu


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
    text = os.environ.get(BOUND_ENV)
    if text is None:
        return DEFAULT_BOUND
    try:
        return positive_int(text)
    except argparse.ArgumentTypeError:
        raise ValueError(
            f"{BOUND_ENV} must be a positive integer, got {text!r}") from None


def require_letters_within_bound(n: int, args):
    """The one letter cap, shared by green, eval, regular and the letter
    requests of verify; above it the request is invalid (exit 2)."""
    bound = enumeration_bound(args)
    if n > bound:
        raise ValueError(f"n = {n} exceeds the enumeration bound {bound}")


def refuse_unread_flags(args, request: str):
    """Raise on the first flag given that the request does not read."""
    key = getattr(args, "check", None)
    if key not in READS:
        key = "with --n" if args.n is not None else "without --n"
        request = f"{request} {key}"
    for flag in ("family", "rank", "n", "mu", "nu", "e", "variant"):
        if getattr(args, flag, None) is not None and flag not in READS[key]:
            if flag in READS["regular-catalog"]:
                raise ValueError(f"--{flag} restricts regular-catalog only, "
                                 f"not --check {args.check}")
            raise ValueError(f"--{flag} is not read by {request}")


def fixed_block_type(mu, nus, e: int):
    """What is left of mu after removing e copies of every rotating
    type; None when nothing is left."""
    from collections import Counter

    from .symfun import Partition
    from .weyl import InvalidConfigError
    remaining = Counter(tuple(mu))
    for nu in nus:
        for part in nu:
            remaining[part] -= e
    if any(v < 0 for v in remaining.values()):
        times = "once" if e == 1 else f"{e} times"
        raise InvalidConfigError(
            f"types {[tuple(nu) for nu in nus]} taken {times} each do not "
            f"fit inside mu={tuple(mu)}")
    parts = tuple(sorted(remaining.elements(), reverse=True))
    return Partition(parts) if parts else None


def build_block_config(args):
    """Configuration from the flags.

    With --n the shape is a distinguished trailing block of the single
    --nu type and the catalog twist on the remaining letters.  Without
    it, each --nu gives a family of e rotating blocks, preceded by one
    fixed block holding whatever --mu leaves over.
    """
    from .weyl import (InvalidConfigError, l_regular_config, rotating_config,
                       validate_config)
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
        variant = getattr(args, "variant", None)
        cfg = l_regular_config(n_flag, nus[0].size, e, nu=nus[0],
                               variant="a" if variant is None else variant)
    elif not nus:
        raise InvalidConfigError(
            "need --nu (one per rotating family), or --n to place the "
            "twist on free letters")
    else:
        mu_flag = getattr(args, "mu", None)
        fixed = None if mu_flag is None else fixed_block_type(mu_flag, nus, e)
        cfg = rotating_config(e, nus, fixed)
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
    import json
    return json.dumps(payload, sort_keys=True, separators=(",", ":"))


def aligned(title: str, columns, rows):
    """Text table lines: the title, then header and rows in padded columns."""
    widths = [max([len(col)] + [len(r[i]) for r in rows])
              for i, col in enumerate(columns)]
    return [title] + ["  ".join(cell.ljust(w) for cell, w in
                                zip(r, widths)).rstrip()
                      for r in [columns, *rows]]


def emit(args, payload, columns, rows, lines):
    """The one output path: payload as canonical json, columns and rows
    as csv, or the text lines."""
    if args.format == "json":
        print(canonical_json(payload))
    elif args.format == "csv":
        import csv
        writer = csv.writer(sys.stdout, lineterminator="\n")
        writer.writerow(columns)
        writer.writerows(rows)
    else:
        for line in lines:
            print(line)


def report_payload(rep) -> dict:
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
    from .poly import render_terms
    from .symfun import partitions_of, springer_graded_char
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
    columns = ["class", "polynomial"]
    rows = [[part_text(rho), " ".join(str(c) for c in g[rho].coeffs)]
            for rho in classes]
    text = [[f"({part_text(rho)})", render_terms(g[rho].coeffs, "q")]
            for rho in classes]
    emit(args, payload, columns, rows, aligned(
        f"Green polynomials for mu=({part_text(mu)}), one row per class",
        columns, text))
    return 0


def cmd_eval(args) -> int:
    from .poly import render_terms, root_values
    from .symfun import partitions_of, springer_graded_char
    mu = args.mu
    n = mu.size
    e = args.e
    require_letters_within_bound(n, args)
    if e > EVAL_MAX_E:
        raise ValueError(f"e = {e} exceeds the eval cap {EVAL_MAX_E}")
    exponents = [args.j % e] if args.j is not None else list(range(e))
    counts = None
    if args.nu:
        from .weyl import (CosetCounts, InvalidConfigError, _config_echo,
                           _require_regular_blocks)
        cfg = build_block_config(args)
        if tuple(cfg.merged_type()) != tuple(mu):
            raise InvalidConfigError(
                f"blocks merge to {tuple(cfg.merged_type())}, not {tuple(mu)}")
        _require_regular_blocks(cfg)
        counts = CosetCounts(cfg, exponents)
    failed = False
    g = springer_graded_char(mu)
    classes = list(partitions_of(n))
    json_rows = []
    rows = []
    for rho in classes:
        values = root_values(g[rho], e, exponents)
        cells = [render_terms(v, "z") for v in values]
        json_row = {"class": list(rho), "values": cells}
        row = [part_text(rho)] + cells
        if counts is not None:
            scaled = counts.scaled(rho)
            ok = all(map(counts.agrees, values, scaled))
            json_row["counts"] = [counts.text(s) for s in scaled]
            json_row["match"] = ok
            row.extend(json_row["counts"])
            row.append("ok" if ok else "MISMATCH")
            failed = failed or not ok
        json_rows.append(json_row)
        rows.append(row)
    payload = {"command": "eval", "mu": list(mu), "n": n, "e": e,
               "j": exponents, "rows": json_rows}
    columns = ["class"] + [f"j={j}" for j in exponents]
    if counts is not None:
        payload["config"] = _config_echo(cfg)
        payload["status"] = "fail" if failed else "pass"
        columns += [f"count j={j}" for j in exponents] + ["match"]
    text = [[f"({row[0]})"] + row[1:] for row in rows]
    emit(args, payload, columns, rows, aligned(
        f"Values at {e}-th roots for mu=({part_text(mu)})", columns, text))
    return 1 if failed else 0


def _skipped(name: str, cfg, exc):
    from .verify import VerificationReport
    from .weyl import _config_echo
    return VerificationReport(check=name, config=_config_echo(cfg),
                              status="skipped", counterexamples=[],
                              elapsed_ms=0.0, notes=str(exc))


def run_checks(args):
    from .verify import (ALL_CHECKS, check_regular_catalog,
                         check_ungraded_induction)
    from .weyl import InvalidConfigError
    name = args.check
    refuse_unread_flags(args, f"verify --check {name}")
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
        require_letters_within_bound(nus[0][0] * args.e, args)
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
    import json
    reports = run_checks(args)
    payload = [report_payload(r) for r in reports]
    columns = ["check", "status", "witnesses", "elapsed_ms", "notes"]
    rows = [[r.check, r.status, json.dumps(r.counterexamples),
             f"{r.elapsed_ms:.1f}", r.notes] for r in reports]
    emit(args, payload[0] if len(payload) == 1 else payload, columns, rows,
         aligned(f"verify: {reports[0].config}", columns, rows))
    return 0 if all(r.status in ("pass", "skipped") for r in reports) else 1


def cmd_regular(args) -> int:
    from .rootsys import build_root_system, levi_config
    from .weyl import eigenspace, is_L_regular, regular_element
    # a rank with no root system is refused before the letter cap on its
    # ambient space, and both before the catalog's rules
    rs = build_root_system(args.family, args.rank)
    require_letters_within_bound(rs.dim, args)
    a = regular_element(args.family, args.rank, args.e, args.variant)
    lv = levi_config(rs, args.pi_L or ())
    regular = is_L_regular(a, args.e, lv)
    dim = len(eigenspace(a, args.e))
    element = cycle_notation(a)
    payload = {"command": "regular", "family": args.family, "rank": args.rank,
               "e": args.e, "variant": args.variant,
               "pi_L": list(lv.pi_L), "element": element,
               "perm": list(a.perm), "order": a.order(),
               "regular": regular, "eigenspace_dim": dim}
    word = "regular" if regular else "not regular"
    if lv.pi_L:
        word = ("L-regular" if regular else "not L-regular") \
            + f" for pi_L={part_text(lv.pi_L)}"
    emit(args, payload, ["element", "order", "regular", "eigenspace_dim",
                         "pi_L"],
         [[element, a.order(), regular, dim, part_text(lv.pi_L)]],
         [f"{element}, {word}, a(e)={dim}"])
    return 0


def cmd_config_validate(args) -> int:
    from .weyl import _config_echo, validate_config
    refuse_unread_flags(args, "config-validate")
    cfg = build_block_config(args)
    shape = validate_config(cfg)
    echo = _config_echo(cfg)
    emit(args, {"command": "config-validate", "shape": shape, "config": echo},
         ["shape", "config"], [[shape, echo]], [f"valid ({shape}): {echo}"])
    return 0


# ---------------------------------------------------------------------------
# parser and entry point


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="greenchar", allow_abbrev=False,
        description="Exact Green polynomial tables, root-of-unity values, "
                    "and induction checks.")
    # no prefix matching: --n must not be read as --nu, --bo as --bound
    sub = parser.add_subparsers(
        dest="command", required=True,
        parser_class=partial(argparse.ArgumentParser, allow_abbrev=False))

    def common(p):
        p.add_argument("--format", choices=("json", "csv", "text"),
                       default="text")

    p_green = sub.add_parser("green", help="Green polynomial table for one "
                                           "Jordan type")
    p_green.add_argument("--mu", type=partition_arg, required=True)
    p_green.add_argument("--n", type=positive_int)
    p_green.add_argument("--bound", type=positive_int,
                         help=f"enumeration cap, default {DEFAULT_BOUND} "
                              f"(env {BOUND_ENV})")
    common(p_green)
    p_green.set_defaults(func=cmd_green)

    p_eval = sub.add_parser("eval", help="values at roots of unity, with "
                                         "coset counts when --nu is given")
    p_eval.add_argument("--mu", type=partition_arg, required=True)
    p_eval.add_argument("--e", type=positive_int, required=True,
                        help=f"order of the root of unity, at most "
                             f"{EVAL_MAX_E}")
    p_eval.add_argument("--j", type=int)
    p_eval.add_argument("--nu", type=block_type_arg, action="append",
                        help="rotating block type; repeat for several "
                             "families; the part of --mu left over sits on "
                             "a fixed block")
    p_eval.add_argument("--bound", type=positive_int)
    common(p_eval)
    p_eval.set_defaults(func=cmd_eval)

    p_verify = sub.add_parser("verify", help="run one named check, or every "
                                             "applicable one")
    p_verify.add_argument("--check", required=True,
                          choices=CHECKS + ("all",))
    p_verify.add_argument("--n", type=positive_int,
                          help="selects the regular-twist shape: one "
                               "distinguished block of type --nu, catalog "
                               "twist on the other letters")
    p_verify.add_argument("--mu", type=partition_arg,
                          help="merged type; the part not covered by the "
                               "rotating blocks sits on a fixed block")
    p_verify.add_argument("--nu", type=block_type_arg, action="append")
    p_verify.add_argument("--e", type=positive_int)
    p_verify.add_argument("--variant")
    p_verify.add_argument("--family", help="restrict regular-catalog")
    p_verify.add_argument("--rank", type=positive_int,
                          help="restrict regular-catalog")
    common(p_verify)
    p_verify.set_defaults(func=cmd_verify)

    p_regular = sub.add_parser("regular", help="catalog twist for a family "
                                               "and rank")
    p_regular.add_argument("--family", required=True)
    p_regular.add_argument("--rank", type=positive_int, required=True)
    p_regular.add_argument("--e", type=positive_int, required=True)
    p_regular.add_argument("--variant", default="a")
    p_regular.add_argument("--pi-L", dest="pi_L", type=labels_arg,
                           help="test regularity relative to this parabolic "
                                "instead of the full group")
    common(p_regular)
    p_regular.set_defaults(func=cmd_regular)

    p_validate = sub.add_parser("config-validate",
                                help="classify a block configuration")
    p_validate.add_argument("--n", type=positive_int)
    p_validate.add_argument("--mu", type=partition_arg)
    p_validate.add_argument("--nu", type=block_type_arg, action="append")
    p_validate.add_argument("--e", type=positive_int)
    p_validate.add_argument("--variant")
    common(p_validate)
    p_validate.set_defaults(func=cmd_config_validate)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except ValueError as exc:  # InvalidConfigError among them
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
