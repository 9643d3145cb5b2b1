"""Command-line front end.

Verbs: info, apery, hilbert, strata, check, residue-table, construct-sp,
search.  Output is deterministic byte for byte: identical inputs produce
identical text, JSON, or CSV, whatever the worker count.

Exit codes: 0 success, 1 input/validation error (ResourceLimit included:
generators whose e * max(gens) exceeds the fixed window budget), 2
not-applicable (a check whose hypotheses the semigroup does not satisfy).
Under --format csv a search's payload holds its csv string alone; a search
that fails there writes its error line to stderr, not a payload to stdout.
"""

from __future__ import annotations

import json
import sys
from dataclasses import dataclass, field, fields, is_dataclass
from functools import cache

from .core import NumericalSemigroup, build, parse_generators
from .errors import HypothesisFailed, SemigroupError, UsageError
from .filtration import audit_delta, hilbert_function, is_tangent_cone_cm, strata_tables
from .grading import apery_strata
from .search import (
    SearchConfig,
    SpParameters,
    construct_sp,
    residue_table,
    search_decreasing,
    search_results_csv,
    sp_generator_list,
)
from .structure import (
    check_chain_structure,
    check_offset3,
    check_offset4,
    check_power_apery_tail,
    classification_report,
    classify_c3,
    is_symmetric,
    match_ap2_size4_case,
)

__all__ = ["Command", "Report", "execute", "main", "parse", "render"]

# Each flag: its key and the verbs that read it, None for every verb.
_FLAGS = {
    "--format": ("format", None),
    "--max-level": ("max_level", ("strata",)),
    "--e-range": ("e_range", ("search",)),
    "--v-offset": ("v_offset", ("search",)),
    "--gen-bound": ("gen_bound", ("search",)),
    "--workers": ("workers", ("search",)),
    "--seed": ("seed", None),
    "--p": ("p", ("construct-sp",)),
    "--k": ("k", ("construct-sp",)),
    "--kprime": ("kprime", ("construct-sp",)),
    "--alpha": ("alpha", ("construct-sp",)),
    "--beta": ("beta", ("construct-sp",)),
    "--gamma": ("gamma", ("construct-sp",)),
}
# Flags whose values stay text; parse makes every other flag an integer.
_TEXT_FLAGS = ("format", "e_range", "gen_bound")


@dataclass
class Command:
    verb: str
    gens: list[int] | None = None
    what: str | None = None
    flags: dict = field(default_factory=dict)


@dataclass
class Report:
    payload: dict
    warnings: list[str] = field(default_factory=list)
    exit_code: int = 0


def parse(argv: list[str]) -> Command:
    """Parse an argument vector; raises UsageError naming the offending flag."""
    if not argv:
        raise UsageError("missing verb")
    verb, rest = argv[0], argv[1:]
    if verb not in _VERBS:
        raise UsageError("unknown verb %r" % verb)
    positional: list[str] = []
    flags: dict = {}
    i = 0
    while i < len(rest):
        token = rest[i]
        if token.startswith("--"):
            if token not in _FLAGS:
                raise UsageError("unknown flag %s" % token)
            key, verbs = _FLAGS[token]
            if verbs is not None and verb not in verbs:
                raise UsageError("%s does not take %s" % (verb, token))
            if key in flags:
                raise UsageError("flag %s given twice" % token)
            if i + 1 >= len(rest):
                raise UsageError("flag %s needs a value" % token)
            flags[key] = rest[i + 1]
            i += 2
        else:
            positional.append(token)
            i += 1
    cmd = Command(verb, flags=flags)
    if verb in _VIEWS:
        if len(positional) != 1:
            raise UsageError("%s takes exactly one generator list" % verb)
        cmd.gens = parse_generators(positional[0])
    elif verb == "check":
        if len(positional) != 2:
            raise UsageError("check takes WHAT and a generator list")
        if positional[0] not in _CHECKS:
            raise UsageError("unknown check %r" % positional[0])
        cmd.what = positional[0]
        cmd.gens = parse_generators(positional[1])
    elif verb == "residue-table":
        if len(positional) != 1:
            raise UsageError("residue-table takes the modulus e")
        try:
            cmd.gens = [int(positional[0])]
        except ValueError:
            raise UsageError(
                "residue-table takes a single integer modulus, not %r" % positional[0]
            ) from None
    elif verb in ("construct-sp", "search"):
        if positional:
            raise UsageError("%s takes flags only" % verb)
    fmt = flags.get("format", "text")
    if fmt not in ("text", "json", "csv"):
        raise UsageError("--format must be text, json or csv")
    if fmt == "csv" and verb != "search":
        raise UsageError("--format csv is only valid for search")
    for flag, (key, _) in _FLAGS.items():
        if key in flags and key not in _TEXT_FLAGS:
            try:
                flags[key] = int(flags[key])
            except ValueError:
                raise UsageError("%s needs an integer" % flag)
    if flags.get("max_level", 0) < 0:
        raise UsageError("--max-level needs a level >= 0")
    return cmd


# -- serialization -------------------------------------------------------------

# Properties a result carries into its payload after its fields.
_DERIVED = ("consistent", "ok")
# Values a payload carries as they are.
_PLAIN = frozenset({bool, int, str, type(None)})


@cache
def _layout(cls) -> tuple[str, ...] | None:
    """Payload keys of a result type, None when it is not a dataclass."""
    if not is_dataclass(cls):
        return None
    return tuple(f.name for f in fields(cls)) + tuple(n for n in _DERIVED if hasattr(cls, n))


def _encode(value):
    """Payload form of a result: a dataclass becomes its fields in declaration
    order followed by any _DERIVED property it has, tuples become lists, and
    dicts get string keys in sorted order."""
    kind = type(value)
    if kind is tuple:
        # A flat tuple of ints converts in one call, not one per int.
        if value and type(value[0]) is not int:
            return [_encode(x) for x in value]
        return list(value)
    if kind is dict:
        return {str(k): _encode(v) for k, v in sorted(value.items())}
    layout = _layout(kind)
    if layout is None:
        return value
    out = {}
    for name in layout:
        # Most fields are plain: skipping the call for them keeps `info`
        # about as fast as hand-written dicts.
        item = getattr(value, name)
        out[name] = item if type(item) in _PLAIN else _encode(item)
    return out


def _strata_dict(S: NumericalSemigroup) -> dict:
    """The Apery strata, keyed d, h_r_prime, strata (not their field order)."""
    strata = _encode(apery_strata(S))
    return {key: strata[key] for key in ("d", "h_r_prime", "strata")}


def _tables_dict(S: NumericalSemigroup, max_level=None) -> dict:
    """The D_k / C_k / D_k^t tables, without the levels above max_level."""
    tables = _encode(strata_tables(S))
    if max_level is not None:
        for key in ("d_sets", "c_sets", "d_split"):
            tables[key] = {k: v for k, v in tables[key].items() if int(k) <= max_level}
    return tables


def _base_payload(S: NumericalSemigroup) -> dict:
    return {
        "generators": list(S.gens),
        "e": S.e,
        "v": S.v,
        "frobenius": S.f,
    }


# -- views and checks ----------------------------------------------------------


def _info_fields(S: NumericalSemigroup, cmd: Command) -> dict:
    profile = hilbert_function(S)
    fields = {
        "apery": list(S.apery().elems),
        "ap_strata": _strata_dict(S),
        "hilbert": _encode(profile),
        **_tables_dict(S),
        "decreasing_levels": list(profile.decreasing_levels),
        "tangent_cone_cm": is_tangent_cone_cm(S),
        "classification": _encode(classification_report(S)),
    }
    del fields["r_stop"]
    return fields


# The one-semigroup views: the fields each adds after _base_payload.
_VIEWS = {
    "info": _info_fields,
    "apery": lambda S, cmd: {"apery": list(S.apery().elems)},
    "hilbert": lambda S, cmd: {"hilbert": _encode(hilbert_function(S))},
    "strata": lambda S, cmd: {
        "ap_strata": _strata_dict(S),
        **_tables_dict(S, cmd.flags.get("max_level")),
    },
}
_VERBS = (*_VIEWS, "check", "residue-table", "construct-sp", "search")


def _c3_fields(S: NumericalSemigroup) -> dict:
    pattern = classify_c3(S)
    if pattern is None:
        return {"found": False, "witnesses": []}
    return {"found": True, "witnesses": _encode(pattern.witnesses)}


def _ap24_fields(S: NumericalSemigroup) -> dict:
    match = match_ap2_size4_case(S)
    if match is None:
        return {"found": False}
    fields = {"found": True, **_encode(match)}
    del fields["all_cases"]
    return fields


# The checks: each gives a result whose fields follow "check" in the payload,
# either a dict of payload fields or a verdict; a verdict whose hypotheses
# fail (applicable false) exits 2.
_CHECKS = {
    "offset-3": check_offset3,
    "offset-4": check_offset4,
    "chain": check_chain_structure,
    "apery-tail": check_power_apery_tail,
    "c3": _c3_fields,
    "ap2-4": _ap24_fields,
    "symmetric": lambda S: {"symmetric": is_symmetric(S)},
    "delta": audit_delta,
    "cm": lambda S: {"tangent_cone_cm": is_tangent_cone_cm(S)},
}

_USAGE = """usage: numsem VERB [ARGS] [FLAGS]
  info GENS | apery GENS | hilbert GENS | strata GENS [--max-level K]
  check WHAT GENS            WHAT: %s
  residue-table E
  construct-sp --p P --k K --kprime K [--alpha A --beta B --gamma C]
  search --e-range LO..HI --v-offset {3,4} [--gen-bound 20e] [--workers N]
flags: --format text|json|csv (csv: search only), --seed N
GENS is a comma-separated list of positive integers, e.g. 13,19,24
""" % "|".join(_CHECKS)


# -- execution -----------------------------------------------------------------


def execute(cmd: Command) -> Report:
    """Run a parsed command; semigroup errors become exit code 1, checks on
    semigroups outside their hypotheses exit 2."""
    try:
        report = _dispatch(cmd)
    except HypothesisFailed as exc:
        return Report({"error": "HypothesisFailed", "message": str(exc)}, [], 2)
    except UsageError:
        raise
    except SemigroupError as exc:
        return Report({"error": type(exc).__name__, "message": str(exc)}, [], 1)
    if "seed" in cmd.flags:
        report.payload["seed"] = cmd.flags["seed"]
    return report


def _dispatch(cmd: Command) -> Report:
    if cmd.verb == "residue-table":
        rows = residue_table(cmd.gens[0])
        payload = {
            "e": cmd.gens[0],
            "rows": [_encode(r) for r in rows],
            "admissible_h": [r.h for r in rows if r.admissible],
        }
        for row in payload["rows"]:
            del row["e"]
        return Report(payload)

    if cmd.verb == "construct-sp":
        for key in ("p", "k", "kprime"):
            if key not in cmd.flags:
                raise UsageError("construct-sp needs --%s" % key)
        params = SpParameters(
            cmd.flags["p"],
            cmd.flags["k"],
            cmd.flags["kprime"],
            cmd.flags.get("alpha", 2),
            cmd.flags.get("beta", 2),
            cmd.flags.get("gamma", 3),
        )
        gens = sp_generator_list(params)
        S = construct_sp(params)
        payload = {
            "params": _encode(params),
            "generators_as_constructed": list(gens),
            **_base_payload(S),
            "hilbert": _encode(hilbert_function(S)),
            "symmetric": is_symmetric(S),
        }
        return Report(payload)

    if cmd.verb == "search":
        for key in ("e_range", "v_offset"):
            if key not in cmd.flags:
                raise UsageError("search needs --%s" % key.replace("_", "-"))
        lo, sep, hi = cmd.flags["e_range"].partition("..")
        if not sep or not lo.isdecimal() or not hi.isdecimal():
            raise UsageError("--e-range must look like LO..HI")
        bound_text = cmd.flags.get("gen_bound", "20e")
        per_e = bound_text.endswith("e")
        try:
            bound = int(bound_text[:-1] if per_e else bound_text)
        except ValueError:
            raise UsageError("--gen-bound must be an integer or Ne form") from None
        kwargs = {"gen_bound_per_e" if per_e else "gen_bound": bound}
        config = SearchConfig(
            e_range=(int(lo), int(hi)),
            v_offset=cmd.flags["v_offset"],
            workers=cmd.flags.get("workers", 1),
            **kwargs,
        )
        results = search_decreasing(config)
        # csv prints the csv string alone: build no per-hit dicts for it
        if cmd.flags.get("format") == "csv":
            return Report({"csv": search_results_csv(results)})
        payload = {
            "e_range": list(config.e_range),
            "v_offset": config.v_offset,
            "count": len(results),
            "results": [
                {
                    "generators": list(S.gens),
                    "e": S.e,
                    "v": S.v,
                    "hilbert": _encode(hilbert_function(S)),
                }
                for S in results
            ],
            "csv": search_results_csv(results),
        }
        return Report(payload)

    S = build(cmd.gens)
    if cmd.verb != "check":
        return Report({**_base_payload(S), **_VIEWS[cmd.verb](S, cmd)})
    result = _CHECKS[cmd.what](S)
    fields = _encode(result) if is_dataclass(result) else result
    code = 0 if fields.get("applicable", True) else 2
    return Report({**_base_payload(S), "check": cmd.what, **fields}, [], code)


# -- rendering -----------------------------------------------------------------


def _text_lines(value, prefix: str):
    if isinstance(value, dict):
        if not value:
            yield "%s: {}" % prefix
        for key, sub in value.items():
            child = "%s.%s" % (prefix, key) if prefix else str(key)
            yield from _text_lines(sub, child)
    elif isinstance(value, list):
        if all(not isinstance(x, (dict, list)) for x in value):
            yield "%s: %s" % (prefix, ",".join(map(_scalar, value)))
        else:
            for idx, sub in enumerate(value):
                yield from _text_lines(sub, "%s[%d]" % (prefix, idx))
    else:
        yield "%s: %s" % (prefix, _scalar(value))


def _scalar(value) -> str:
    if value is None:
        return "none"
    if value is True:
        return "true"
    if value is False:
        return "false"
    return str(value)


def render(report: Report, fmt: str = "text") -> str:
    """Deterministic rendering; JSON round-trips to the payload exactly."""
    if fmt == "json":
        doc = {"payload": report.payload, "warnings": report.warnings,
               "exit_code": report.exit_code}
        return json.dumps(doc, sort_keys=True, separators=(",", ":")) + "\n"
    if fmt == "csv":
        if "csv" not in report.payload:
            raise UsageError("csv output is only available for search")
        return report.payload["csv"]
    lines = []
    payload = dict(report.payload)
    hilbert = payload.get("hilbert")
    if isinstance(hilbert, dict) and "values" in hilbert:
        arrow = "[%s->]" % ",".join(map(str, hilbert["values"]))
        payload["hilbert"] = {**hilbert, "arrow": arrow}
    for key, value in payload.items():
        if key == "csv":
            continue
        lines.extend(_text_lines(value, key))
    for warning in report.warnings:
        lines.append("warning: %s" % warning)
    return "\n".join(lines) + "\n"


def main(argv: list[str] | None = None) -> int:
    args = list(sys.argv[1:] if argv is None else argv)
    try:
        cmd = parse(args)
        report = execute(cmd)
    except UsageError as exc:
        sys.stderr.write("error: %s\n%s" % (exc, _USAGE))
        return 1
    except SemigroupError as exc:
        sys.stderr.write("error: %s: %s\n" % (type(exc).__name__, exc))
        return 1
    fmt = cmd.flags.get("format", "text")
    if fmt == "csv" and "error" in report.payload:
        sys.stderr.write("error: %(error)s: %(message)s\n" % report.payload)
        return report.exit_code
    sys.stdout.write(render(report, fmt))
    return report.exit_code
