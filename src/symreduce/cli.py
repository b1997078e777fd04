"""Command-line front end.

Exit codes are a regression contract: 0 means the computation agrees with
the reference outcome recorded for that command, 2 means a genuine
disagreement was found (for example a survivor where none is expected),
and 1 is a usage or runtime error.
"""

from __future__ import annotations

import argparse
import importlib
import json
import sys

from .errors import DomainError

# A command loads only the layers it runs: each handler imports them itself
# and calls them through their module attribute.

EXIT_AGREES = 0
EXIT_ERROR = 1
EXIT_DISAGREES = 2


def _layer_constant(layer: str, name: str):
    """A reader of a layer's constant, which loads the layer when called."""
    return lambda: getattr(importlib.import_module(f"{__package__}.{layer}"), name)


# Every argument, by name; a command lists the ones it takes.  An option
# without a "default" is None when not given.  A callable "choices" or
# "default" is read when the command is chosen; each reads a layer the
# command runs anyway.
_ARGUMENTS = {
    "v": {"type": int},
    "k": {"type": int},
    "lam": {"metavar": "lambda", "type": int},
    "v0": {"type": int},
    "group": {"help": "e.g. A7, L3(4), O+8(2), 2B2(8), M11"},
    "--catalog-bound": {"type": int, "default": _layer_constant("atlas", "DEFAULT_CATALOG_BOUND")},
    "--out4-nmax": {"type": int, "help": "default: the certified box"},
    "--out4-qmax": {"type": int, "help": "default: the certified box"},
    "--v0-min": {
        "type": int,
        "choices": _layer_constant("design", "V0_MIN_CHOICES"),
        "default": _layer_constant("design", "DEFAULT_V0_MIN"),
    },
    "--format": {"choices": ("json", "md"), "default": "json"},
    "--output": {"help": "write the report to a file"},
}


class _Parser(argparse.ArgumentParser):
    # argparse exits with 2 on usage errors, which collides with the
    # "disagreement" exit code; route usage errors to 1 instead.
    def error(self, message):
        self.print_usage(sys.stderr)
        raise _UsageError(message)


class _UsageError(Exception):
    pass


def _build(dest: str, body, arguments, **kwargs) -> _Parser:
    """The parser of one row of _COMMANDS: its subcommands, or its handler
    and arguments."""
    parser = _Parser(**kwargs)
    if callable(body):
        parser.set_defaults(func=body)
        for name in arguments:
            spec = {k: v() if k in ("choices", "default") and callable(v) else v for k, v in _ARGUMENTS[name].items()}
            parser.add_argument(name, **spec)
    else:
        sub = parser.add_subparsers(dest=dest, required=True, parser_class=_Deferred)
        for row in body:
            sub.add_parser(row[0], help=row[1], row=row)
    return parser


class _Deferred:
    """A command's parser, built from its row when argparse hands it the
    command's arguments: argparse asks an unchosen command for nothing but
    its name and help."""

    def __init__(self, *, row: tuple, **kwargs):
        self._row = row
        self._kwargs = kwargs

    def parse_known_args(self, args, namespace):
        name, _, body, *arguments = self._row
        return _build(f"{name}_command", body, arguments, **self._kwargs).parse_known_args(args, namespace)


def _print_json(payload) -> None:
    print(json.dumps(payload, sort_keys=True, indent=2))


def _cmd_check(args) -> int:
    from . import design

    admissible, violations = design.is_symmetric_admissible(args.v, args.k, args.lam)
    _print_json(
        {
            "v": args.v,
            "k": args.k,
            "lambda": args.lam,
            "admissible": admissible,
            "violations": violations,
        }
    )
    return EXIT_AGREES if admissible else EXIT_DISAGREES


def _cmd_atlas_lookup(args) -> int:
    from . import atlas

    gid = atlas.parse_group(args.group)
    lookup = atlas.order if args.atlas_command == "order" else atlas.out_order
    value = lookup(gid)
    try:
        text = str(value)
    except ValueError:
        # More digits than int-to-str allows, a limit Decimal does not apply;
        # the caller's limit stays as it is.
        import decimal

        text = str(decimal.Decimal(value))
    print(text)
    return EXIT_AGREES


def _cmd_atlas_scan(args) -> int:
    from . import atlas

    n_max, q_max = atlas.certified_box()
    result = atlas.out4_scan(
        n_max if args.out4_nmax is None else args.out4_nmax,
        q_max if args.out4_qmax is None else args.out4_qmax,
    )
    payload = result.as_payload()
    payload["expected"] = list(atlas.REFERENCE_OUT4_CANDIDATES)
    payload["failing_checks"] = [row.label for row in result.failing_checks()]
    _print_json(payload)
    if not result.ok:
        print("the box misses the certified region: bounds too small to trust the scan", file=sys.stderr)
        return EXIT_ERROR
    return EXIT_AGREES if result.matches_reference else EXIT_DISAGREES


def _cmd_atlas_catalog(args) -> int:
    from . import atlas

    records = [
        {
            "name": atlas.display_name(gid),
            "family": gid.family.value,
            "n": gid.n,
            "p": gid.p,
            "f": gid.f,
            "order": facts.order,
            "out_order": facts.out_order,
        }
        for gid, facts in atlas.enumerate_catalog(args.catalog_bound)
    ]
    _print_json({"max_order": args.catalog_bound, "count": len(records), "groups": records})
    return EXIT_AGREES


def _cmd_diagonal_scan(args) -> int:
    from . import diagonal

    result = diagonal.diagonal_scan(args.catalog_bound)
    _print_json(result.as_payload())
    return EXIT_AGREES if not result.survivors else EXIT_DISAGREES


def _cmd_product_enumerate(args) -> int:
    from . import product

    triples = product.enumerate_product_cases(args.v0_min)
    reference = product.reference_triples(args.v0_min)
    matches = product.triples_match_reference(triples, args.v0_min)
    _print_json(
        {
            "v0_min": args.v0_min,
            "m_values": list(product.M_VALUES),
            "triples": [t.as_payload() for t in triples],
            "reference": [list(t) for t in reference],
            "matches_reference": matches,
        }
    )
    return EXIT_AGREES if matches else EXIT_DISAGREES


def _cmd_product_m4(args) -> int:
    from . import product

    rep = product.m4_case(args.v0)
    _print_json(rep.as_payload())
    return EXIT_AGREES if product.m4_matches_reference(rep) else EXIT_DISAGREES


def _cmd_imprimitive_family(args) -> int:
    from . import imprimitive

    _print_json(imprimitive.imprimitive_family(args.lam).as_payload())
    return EXIT_AGREES


def _cmd_reduce(args) -> int:
    from . import report

    result = report.run_reduce(args.v0_min)
    document = report.emit(result, args.format)
    if args.output is not None:
        with open(args.output, "w", encoding="utf-8") as handle:
            handle.write(document)
    else:
        print(document, end="")
    return EXIT_AGREES if result.agrees_with_reference else EXIT_DISAGREES


# The command tree: (name, help, subcommands) for a group, and (name, help,
# handler, *argument names) for a command.
_COMMANDS = (
    (
        "check",
        "symmetric design admissibility for a (v, k, lambda); with v odd and "
        "k - lambda not a square, k - lambda and lambda must be <= 10^12",
        _cmd_check, "v", "k", "lam",
    ),
    ("atlas", "simple group orders and scans", (
        ("order", "exact |T|", _cmd_atlas_lookup, "group"),
        ("out", "exact |Out(T)|", _cmd_atlas_lookup, "group"),
        ("scan", "scan for |T| < |Out(T)|^4", _cmd_atlas_scan, "--out4-nmax", "--out4-qmax"),
        ("catalog", "list all simple groups up to a bound", _cmd_atlas_catalog, "--catalog-bound"),
    )),
    ("diagonal", "simple-diagonal elimination", (
        ("scan", "odd-part scan over the catalog", _cmd_diagonal_scan, "--catalog-bound"),
    )),
    ("product", "product-type elimination", (
        ("enumerate", "enumerate surviving (v, k, lambda)", _cmd_product_enumerate, "--v0-min"),
        ("m4", "the m = 4 interval analysis", _cmd_product_m4, "v0"),
    )),
    ("imprimitive", "point-imprimitive parameter family", (
        ("family", "instantiate the family at lambda", _cmd_imprimitive_family, "lam"),
    )),
    ("reduce", "full pipeline and report", _cmd_reduce, "--v0-min", "--format", "--output"),
)


def main(argv: list[str] | None = None) -> int:
    parser = _build("command", _COMMANDS, (), prog="symreduce", description=__doc__)
    try:
        args = parser.parse_args(argv)
        return args.func(args)
    except (_UsageError, DomainError, OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_ERROR


def main_entry() -> None:
    sys.exit(main())
