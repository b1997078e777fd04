"""Command-line front end.

Exit codes are a regression contract: 0 means the computation agrees with
the reference outcome recorded for that command, 2 means a genuine
disagreement was found (for example a survivor where none is expected),
and 1 is a usage or runtime error.
"""

import gc
import importlib
import sys
from types import SimpleNamespace

from . import jsontext
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


def _print_json(payload) -> None:
    print(jsontext.dumps(payload))


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


def _cmd_atlas_order(args) -> int:
    from . import atlas

    order = atlas.order(atlas.parse_group(args.group))
    try:
        text = str(order)
    except ValueError:
        # More digits than int-to-str allows, a limit Decimal does not apply;
        # the caller's limit stays as it is.
        text = _digits(order)
    print(text)
    return EXIT_AGREES


def _digits(n: int) -> str:
    """The decimal digits of n >= 0, in time subquadratic in their count,
    where Decimal(n) alone is quadratic.  n is split at half its bit
    length, each half is converted in turn, and the halves are joined as
    high*2^k + low by decimal multiplication.  Every value met is at most
    n, so a precision of bit_length/3 + 1 digits holds each one exactly, and
    the context traps Inexact, so no digit can be rounded."""
    import decimal

    context = decimal.Context(
        prec=n.bit_length() // 3 + 1, Emax=decimal.MAX_EMAX, traps=[decimal.Inexact, decimal.Overflow]
    )
    powers = {}

    def convert(part: int, bits: int) -> decimal.Decimal:
        if bits <= 4096:
            return decimal.Decimal(part)
        k = bits // 2
        if k not in powers:
            powers[k] = context.power(2, k)
        return context.fma(convert(part >> k, bits - k), powers[k], convert(part & ((1 << k) - 1), k))

    return str(convert(n, n.bit_length()))


def _cmd_atlas_out(args) -> int:
    from . import atlas

    print(atlas.out_order(atlas.parse_group(args.group)))
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
        ("order", "exact |T|", _cmd_atlas_order, "group"),
        ("out", "exact |Out(T)|", _cmd_atlas_out, "group"),
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


# The command line is read from _COMMANDS as argparse would read it; every
# level takes -h and --help.
_HELP = ("-h", "--help")


class _UsageError(Exception):
    pass


def _spec(name: str) -> dict:
    """An argument's spec, with a callable choices or default read."""
    return {k: v() if k in ("choices", "default") and callable(v) else v for k, v in _ARGUMENTS[name].items()}


def _dest(name: str) -> str:
    return name.lstrip("-").replace("-", "_")


def _metavar(name: str, spec: dict) -> str:
    if "choices" in spec:
        return "{" + ",".join(map(str, spec["choices"])) + "}"
    return spec.get("metavar", _dest(name).upper() if name.startswith("-") else name)


def _usage(prog: str, body, specs: dict) -> str:
    if callable(body):
        words = [f"[{name} {_metavar(name, spec)}]" for name, spec in specs.items() if name.startswith("-")]
        words += [_metavar(name, spec) for name, spec in specs.items() if not name.startswith("-")]
    else:
        words = ["{" + ",".join(row[0] for row in body) + "}", "..."]
    return " ".join(["usage:", prog, "[-h]", *words])


def _help(prog: str, body, specs: dict) -> str:
    """The help of one level: its usage, the top level's description, then
    one two-space entry per positional (a group's are its commands) and per
    option, each help string on its entry's line."""
    if callable(body):
        positionals = [(_metavar(n, s), s.get("help", "")) for n, s in specs.items() if not n.startswith("-")]
        options = [(f"{n} {_metavar(n, s)}", s.get("help", "")) for n, s in specs.items() if n.startswith("-")]
    else:
        positionals, options = [(name, text) for name, text, *_ in body], []
    options.insert(0, (", ".join(_HELP), "show this help message and exit"))
    width = 2 + max(len(entry) for entry, _ in positionals + options)
    lines = [_usage(prog, body, specs), ""]
    if body is _COMMANDS:
        lines += [__doc__.strip(), ""]
    for heading, entries in (("positional arguments:", positionals), ("options:", options)):
        if entries:
            lines += [heading, *(f"  {entry:<{width}}{text}".rstrip() for entry, text in entries), ""]
    return "\n".join(lines)


def _is_negative_number(word: str) -> bool:
    """Whether argparse reads the word as a negative number: "-" and then
    decimal digits, or digits, ".", and at least one digit.  Its pattern
    ends in "$", which also matches before a final newline."""
    if not word.startswith("-"):
        return False
    body = word[1:-1] if word.endswith("\n") else word[1:]
    whole, point, fraction = body.partition(".")
    if point:
        return (not whole or whole.isdecimal()) and fraction.isdecimal()
    return whole.isdecimal()


def _option(word: str, options: tuple):
    """None if the word is a value, else (option, the value after "=" or
    None), the option None when the word names none.  A value is a word
    that does not start with "-", "-" itself, a negative number, or an
    unknown word holding a space.  A long option may be shortened to any
    prefix that no other option shares."""
    if not word.startswith("-") or word == "-" or _is_negative_number(word):
        return None
    name, equals, value = word.partition("=")
    value = value if equals else None
    if name in options:
        return name, value
    if name.startswith("--") and word != "--":
        matches = [option for option in options if option.startswith(name)]
        if len(matches) > 1:
            raise _UsageError(f"ambiguous option: {name} could match {', '.join(matches)}")
        if matches:
            return matches[0], value
    return None if " " in word else (None, value)


def _convert(name: str, spec: dict, raw: str):
    label = name if name.startswith("-") else spec.get("metavar", name)
    value = raw
    if "type" in spec:
        try:
            value = spec["type"](raw)
        except ValueError:
            raise _UsageError(f"argument {label}: invalid {spec['type'].__name__} value: {raw!r}") from None
    if "choices" in spec and value not in spec["choices"]:
        choices = ", ".join(map(repr, spec["choices"]))
        raise _UsageError(f"argument {label}: invalid choice: {value!r} (choose from {choices})")
    return value


def _parse(argv: list[str]) -> SimpleNamespace:
    """The command argv names: its handler as func and its arguments by
    dest, an option not given at its default.

    The words are read left to right: group names down to a command, then
    the command's positionals and options.  -h or --help prints the help of
    the level it is read at and exits 0.  Anything else that cannot be read
    raises _UsageError, once the level's usage line is on stderr."""
    prog, body, specs = "symreduce", _COMMANDS, {}
    options, values, pending, unknown = _HELP, {}, [], []
    words, index = list(argv), 0
    try:
        while index < len(words):
            word, index = words[index], index + 1
            read = _option(word, options)
            if read is None and not callable(body):
                row = next((row for row in body if row[0] == word), None)
                if row is None:
                    choices = ", ".join(repr(row[0]) for row in body)
                    raise _UsageError(f"argument command: invalid choice: {word!r} (choose from {choices})")
                _, _, body, *names = row
                prog = f"{prog} {word}"
                if callable(body):
                    specs = {name: _spec(name) for name in names}
                    options = _HELP + tuple(name for name in names if name.startswith("-"))
                    values = {_dest(name): spec.get("default") for name, spec in specs.items() if name.startswith("-")}
                    pending = [name for name in names if not name.startswith("-")]
            elif read is None:
                if not pending:
                    unknown.append(word)
                    continue
                name = pending.pop(0)
                values[_dest(name)] = _convert(name, specs[name], word)
            else:
                option, value = read
                if option is None:
                    unknown.append(word)
                elif option in _HELP:
                    if value is not None:
                        raise _UsageError(f"argument -h/--help: ignored explicit argument {value!r}")
                    print(_help(prog, body, specs), end="")
                    raise SystemExit(0)
                else:
                    if value is None:
                        if index == len(words) or _option(words[index], options) is not None:
                            raise _UsageError(f"argument {option}: expected one argument")
                        value, index = words[index], index + 1
                    values[_dest(option)] = _convert(option, specs[option], value)
        if not callable(body):
            raise _UsageError("the following arguments are required: command")
        if pending:
            missing = ", ".join(_metavar(name, specs[name]) for name in pending)
            raise _UsageError(f"the following arguments are required: {missing}")
        if unknown:
            raise _UsageError(f"unrecognized arguments: {' '.join(unknown)}")
    except _UsageError:
        print(_usage(prog, body, specs), file=sys.stderr)
        raise
    return SimpleNamespace(func=body, **values)


def main(argv: list[str] | None = None) -> int:
    try:
        args = _parse(sys.argv[1:] if argv is None else argv)
        return args.func(args)
    except (_UsageError, DomainError, OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_ERROR


def main_entry() -> None:
    """Run `main` on the process's command line and exit with its code.

    The process ends here, so no object needs collecting.  The collector
    is off while `main` runs: reference counting frees the tuples a catalog
    walk makes, and a young-generation collection would only walk them.
    Freezing the heap then spares the interpreter's last full-heap
    collection at exit, which runs even with the collector off.  atexit
    handlers, the flush of stdout and stderr and file closing still run.
    `main` neither turns the collector off nor freezes the heap, so
    in-process callers collect as before.
    """
    gc.disable()
    code = main()
    gc.freeze()
    sys.exit(code)
