"""Command line interface.

Verbs: catalog, roots, pair, check, twist, reduce, walls, jh.  All output
is a single UTF-8 JSON document on stdout with sorted keys, so identical
invocations are byte-identical.  On failure the entire output is the object
{"code": ..., "message": ...} and the exit status is nonzero: 2 for parse
errors, 1 for the library's other coded errors, and 3 for an internal error.
An internal error is any other exception (a bug, or an interpreter limit
such as RecursionError), reported as {"code": "InternalError", "message":
"<type>: <text>"}.

--help shows the paragraphs above this one.  A reader that closes stdout
before the whole document is written ends the run with status 1 and nothing
on stderr.
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import re
import sys
from fractions import Fraction

from .catalog import curve_from_label, list_types
from .chamber import (
    NormalizedCharge,
    in_fundamental_chamber,
    jh_of_skyscraper,
    reduce_to_fundamental,
    torsion_pair_data,
    wall_crossings_on_segment,
)
from .charge import CentralCharge, membership
from .errors import KodlatError, OutputTooLarge, ParseError
from .exact import QC, RATIONAL_TEXT
from .kgroup import KClass, pair
from .roots import enumerate_roots_in_box, fundamental_roots, positive_roots
from .twist import TwistWord, apply_word


class _HelpShown(Exception):
    """--help has printed its JSON document; the run ends with status 0."""


class _Parser(argparse.ArgumentParser):
    """argparse that accepts values like "-1,0", raises instead of exiting,
    and prints --help as the JSON document {"help": text}."""

    def __init__(self, *args, **kwargs):
        # a fixed width, so the help text does not depend on the terminal
        kwargs["formatter_class"] = functools.partial(argparse.HelpFormatter, width=78)
        super().__init__(*args, **kwargs)
        # tokens such as -1,0 or -1/3,2 after a flag are values, not options
        self._negative_number_matcher = re.compile(r"^-(\d|\.\d)")

    def error(self, message):
        raise ParseError(message)

    def print_help(self, file=None):
        print(json.dumps({"help": self.format_help()}, sort_keys=True), file=file)

    def exit(self, status=0, message=None):
        # reached only from the --help action, since error() raises
        raise _HelpShown()


def _build_parser() -> _Parser:
    description = "\n\n".join(__doc__.split("\n\n")[:2])
    parser = _Parser(prog="kodlat", description=description, add_help=True)
    sub = parser.add_subparsers(dest="verb", parser_class=_Parser)

    def add(verb, **kwargs):
        p = sub.add_parser(verb, **kwargs)
        p.add_argument("--approx", action="store_true", help="add decimal renderings")
        return p

    p = add("catalog", help="list families or show one curve")
    p.add_argument("--curve", help="curve label like I_2, IV, IStar:0, mI:2:3")

    p = add("roots", help="fundamental roots or a box enumeration")
    p.add_argument("--curve", required=True)
    p.add_argument("--bound", type=int, help="enumerate all roots with |rank| <= bound")
    p.add_argument("--count-only", action="store_true", dest="count_only")

    p = add("pair", help="Euler pairing of two classes")
    p.add_argument("--curve", required=True)
    p.add_argument("--v", required=True, help='class JSON {"chi": int, "ranks": [...]}')
    p.add_argument("--w", required=True, help='class JSON {"chi": int, "ranks": [...]}')

    p = add("check", help="charge validity report")
    p.add_argument("--curve", required=True)
    p.add_argument("--z0", help="complex rational re,im")
    p.add_argument("--z", nargs="+", help="component values re,im")
    p.add_argument("--input", help="batch file, one charge JSON per line")

    p = add("twist", help="apply a twist word to a class or a charge")
    p.add_argument("--curve", required=True)
    p.add_argument("--word", required=True, help='word like "T(1,-1);T(2,0)"')
    p.add_argument("--class", dest="kclass", help="class JSON to act on")
    p.add_argument("--z0", help="charge to act on: point value re,im")
    p.add_argument("--z", nargs="+", help="charge to act on: component values")

    p = add("reduce", help="greedy reduction into the fundamental chamber")
    p.add_argument("--curve", required=True)
    p.add_argument("--z0", help="complex rational re,im")
    p.add_argument("--z", nargs="+", help="component values re,im")
    p.add_argument("--max-steps", type=int, default=10000, dest="max_steps")
    p.add_argument("--input", help="batch file, one charge JSON per line")

    p = add("walls", help="wall crossings along a straight segment")
    p.add_argument("--curve", required=True)
    p.add_argument("--za", nargs="+", required=True, help="normalized start values")
    p.add_argument("--zb", nargs="+", required=True, help="normalized end values")

    p = add("jh", help="stable factor classes of a point on a wall")
    p.add_argument("--curve", required=True)
    p.add_argument("--i", type=int, required=True, help="component index (1-based)")
    p.add_argument("--k", type=int, required=True, help="wall degree")

    return parser


def _parse_charge_flags(args) -> CentralCharge:
    if args.z0 is None or not args.z:
        raise ParseError("--z0 and --z are required when --input is not given")
    return CentralCharge(QC.parse(args.z0), tuple(QC.parse(v) for v in args.z))


def _parse_normalized(values) -> NormalizedCharge:
    return NormalizedCharge(tuple(QC.parse(v) for v in values))


def _parse_class_json(text: str) -> KClass:
    try:
        data = json.loads(text)
        return KClass.from_dict(data)
    except (ValueError, KeyError, TypeError, ParseError) as exc:
        raise ParseError(f"bad class JSON: {text!r}") from exc


def _read_batch(path: str) -> list[CentralCharge]:
    try:
        with open(path, "r", encoding="utf-8") as handle:
            lines = [line.strip() for line in handle]
    except (OSError, UnicodeDecodeError) as exc:
        raise ParseError(f"cannot read batch file {path!r}: {exc}") from exc
    charges = []
    for lineno, line in enumerate(lines, 1):
        if not line:
            continue
        try:
            charges.append(CentralCharge.from_dict(json.loads(line)))
        except (ValueError, ParseError) as exc:
            raise ParseError(f"line {lineno}: {exc}") from exc
    return charges


def _approximate(obj):
    """Mirror of a JSON payload with rational strings rendered as floats."""
    if isinstance(obj, dict):
        return {key: _approximate(value) for key, value in obj.items()}
    if isinstance(obj, list):
        return [_approximate(item) for item in obj]
    if isinstance(obj, str) and RATIONAL_TEXT.match(obj):
        try:
            return float(Fraction(obj))
        except OverflowError as exc:
            raise OutputTooLarge("an output value is past the float range of --approx") from exc
    return obj


def _run(args) -> dict | list:
    if args.verb is None:
        raise ParseError("a verb is required: catalog, roots, pair, check, twist, reduce, walls, jh")

    if args.verb == "catalog":
        if args.curve is None:
            return {"families": [info.to_dict() for info in list_types()]}
        return curve_from_label(args.curve).to_dict()

    curve = curve_from_label(args.curve)

    if args.verb == "roots":
        if args.bound is not None:
            found = enumerate_roots_in_box(curve, args.bound)
            if args.count_only:
                return {"box_count": len(found)}
            return {"bound": args.bound, "roots": [v.to_dict() for v in found]}
        if args.count_only:
            return {"fundamental_count": 2 * len(positive_roots(curve))}
        found = fundamental_roots(curve)
        return {"fundamental_count": len(found), "roots": [v.to_dict() for v in found]}

    if args.verb == "pair":
        v = _parse_class_json(args.v)
        w = _parse_class_json(args.w)
        return {"value": pair(curve, v, w)}

    if args.verb == "check":
        if args.input is not None:
            return [membership(curve, zc).to_dict() for zc in _read_batch(args.input)]
        return membership(curve, _parse_charge_flags(args)).to_dict()

    if args.verb == "twist":
        word = TwistWord.parse(args.word)
        if args.kclass is not None:
            result = apply_word(curve, word, _parse_class_json(args.kclass))
            return {"class": result.to_dict(), "word": word.to_list()}
        zc = apply_word(curve, word, _parse_charge_flags(args))
        return {"charge": zc.to_dict(), "word": word.to_list()}

    if args.verb == "reduce":

        def payload(zc: CentralCharge) -> dict:
            trace = reduce_to_fundamental(curve, zc, args.max_steps)
            out = trace.to_dict()
            out["verdict"] = in_fundamental_chamber(curve, trace.final, closed=True).to_dict()
            return out

        if args.input is not None:
            return [payload(zc) for zc in _read_batch(args.input)]
        return payload(_parse_charge_flags(args))

    if args.verb == "walls":
        za = _parse_normalized(args.za)
        zb = _parse_normalized(args.zb)
        events = wall_crossings_on_segment(curve, za, zb)
        return {"events": [e.to_dict() for e in events]}

    if args.verb == "jh":
        first, second = jh_of_skyscraper(curve, args.i, args.k)
        data = torsion_pair_data(curve, args.i, args.k)
        return {
            "factors": [first.to_dict(), second.to_dict()],
            "torsion_pair": data.to_dict(),
        }

    raise ParseError(f"unknown verb {args.verb!r}")


def _respond(argv) -> tuple[int, str]:
    """(exit status, JSON document) of one invocation; the document is
    empty after --help, which has printed its own."""
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
        payload = _run(args)
        if getattr(args, "approx", False):
            payload = {"exact": payload, "approx": _approximate(payload)}
        try:
            text = json.dumps(payload, sort_keys=True, ensure_ascii=True)
        except ValueError as exc:  # an int past the integer conversion limit
            raise OutputTooLarge() from exc
        return 0, text
    except _HelpShown:
        return 0, ""
    except ParseError as exc:
        return 2, json.dumps({"code": exc.code, "message": str(exc)}, sort_keys=True)
    except KodlatError as exc:
        return 1, json.dumps({"code": exc.code, "message": str(exc)}, sort_keys=True)
    except Exception as exc:
        message = f"{type(exc).__name__}: {exc}"
        return 3, json.dumps({"code": "InternalError", "message": message}, sort_keys=True)


def main(argv=None) -> int:
    status, text = _respond(argv)
    try:  # flushed here, so a reader that has gone raises here and not at exit
        print(text, end="\n" if text else "", flush=True)
    except BrokenPipeError:
        # send what is left to os.devnull, so the flush at exit cannot raise
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 1
    return status


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
