"""Command-line front end.

Verbs: info, apery, hilbert, strata, check, residue-table, construct-sp,
search.  Output is deterministic byte for byte: identical inputs produce
identical text, JSON, or CSV, whatever the worker count.

Exit codes: 0 success, 1 input/validation error, 2 not-applicable (a check
whose hypotheses the semigroup does not satisfy).
"""

from __future__ import annotations

import json
import sys
from dataclasses import dataclass, field

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

_VERBS = (
    "info",
    "apery",
    "hilbert",
    "strata",
    "check",
    "residue-table",
    "construct-sp",
    "search",
)
_CHECKS = (
    "offset-3",
    "offset-4",
    "chain",
    "apery-tail",
    "c3",
    "ap2-4",
    "symmetric",
    "delta",
    "cm",
)
_FLAGS = {
    "--format": "format",
    "--max-level": "max_level",
    "--e-range": "e_range",
    "--v-offset": "v_offset",
    "--gen-bound": "gen_bound",
    "--workers": "workers",
    "--seed": "seed",
    "--p": "p",
    "--k": "k",
    "--kprime": "kprime",
    "--alpha": "alpha",
    "--beta": "beta",
    "--gamma": "gamma",
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
            if i + 1 >= len(rest):
                raise UsageError("flag %s needs a value" % token)
            flags[_FLAGS[token]] = rest[i + 1]
            i += 2
        else:
            positional.append(token)
            i += 1
    cmd = Command(verb, flags=flags)
    if verb in ("info", "apery", "hilbert", "strata"):
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
    for key in ("max_level", "v_offset", "workers", "seed", "p", "k", "kprime",
                "alpha", "beta", "gamma"):
        if key in flags:
            try:
                flags[key] = int(flags[key])
            except ValueError:
                raise UsageError("--%s needs an integer" % key.replace("_", "-"))
    return cmd


# -- serialization -------------------------------------------------------------


def _hilbert_dict(profile) -> dict:
    return {
        "values": list(profile.values),
        "stable_at": profile.stable_at,
        "decreasing_levels": list(profile.decreasing_levels),
    }


def _strata_dict(strata) -> dict:
    return {
        "d": strata.d,
        "h_r_prime": list(strata.h_r_prime),
        "strata": {str(k): list(v) for k, v in sorted(strata.strata.items())},
    }


def _tables_dicts(tables, max_level=None) -> tuple[dict, dict, dict]:
    keep = lambda k: max_level is None or k <= max_level
    d_sets = {str(k): list(v) for k, v in sorted(tables.d_sets.items()) if keep(k)}
    c_sets = {str(k): list(v) for k, v in sorted(tables.c_sets.items()) if keep(k)}
    d_split = {
        str(k): {str(t): list(v) for t, v in sorted(split.items())}
        for k, split in sorted(tables.d_split.items())
        if keep(k)
    }
    return d_sets, c_sets, d_split


def _verdict_dicts(S: NumericalSemigroup) -> dict:
    report = classification_report(S)
    out = {
        "symmetric": report.symmetric,
        "c3_pattern": None
        if report.c3_pattern is None
        else {"witnesses": [list(w) for w in report.c3_pattern.witnesses]},
        "ap24_case": None
        if report.ap24_case is None
        else {
            "case": report.ap24_case.case,
            "witnesses": [list(w) for w in report.ap24_case.witnesses],
            "equality": report.ap24_case.equality,
            "all_cases": list(report.ap24_case.all_cases),
        },
        "offset3": _offset3_dict(report.offset3),
        "offset4": _offset4_dict(report.offset4),
        "chain": _chain_dict(report.chain),
        "power_tail": _tail_dict(report.power_tail),
        "sp_params": None
        if report.sp_params is None
        else {
            "p": report.sp_params.p,
            "k": report.sp_params.k,
            "kprime": report.sp_params.kprime,
            "alpha": report.sp_params.alpha,
            "beta": report.sp_params.beta,
            "gamma": report.sp_params.gamma,
        },
    }
    return out


def _offset3_dict(v) -> dict:
    return {
        "applicable": v.applicable,
        "decreasing": v.decreasing,
        "decreasing_at_2": v.decreasing_at_2,
        "short_profile": v.short_profile,
        "pattern": v.pattern,
        "witnesses": [list(w) for w in v.witnesses],
        "consistent": v.consistent,
    }


def _offset4_dict(v) -> dict:
    return {
        "applicable": v.applicable,
        "profile": None if v.profile is None else list(v.profile),
        "decreasing": v.decreasing,
        "target_decrease": v.target_decrease,
        "pattern": v.pattern,
        "witnesses": [list(w) for w in v.witnesses],
        "level": v.level,
        "consistent": v.consistent,
    }


def _chain_dict(v) -> dict:
    return {
        "applicable": v.applicable,
        "ell": v.ell,
        "d": v.d,
        "witnesses": [list(w) for w in v.witnesses],
        "ell_at_most_d": v.ell_at_most_d,
        "chain_ok": v.chain_ok,
        "power_in_d_ell": v.power_in_d_ell,
        "tail_ok": v.tail_ok,
        "d_ell_pattern_ok": v.d_ell_pattern_ok,
        "not_symmetric": v.not_symmetric,
        "ok": v.ok,
    }


def _tail_dict(v) -> dict:
    return {
        "applicable": v.applicable,
        "r0": v.r0,
        "d": v.d,
        "witness": v.witness,
        "tail_ok": v.tail_ok,
        "head_ok": v.head_ok,
        "ok": v.ok,
    }


def _base_payload(S: NumericalSemigroup) -> dict:
    return {
        "generators": list(S.gens),
        "e": S.e,
        "v": S.v,
        "frobenius": S.f,
    }


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
            "rows": [
                {
                    "h": r.h,
                    "base_classes": list(r.base_classes),
                    "extra_classes": list(r.extra_classes),
                    "admissible": r.admissible,
                }
                for r in rows
            ],
            "admissible_h": [r.h for r in rows if r.admissible],
        }
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
        profile = hilbert_function(S)
        payload = {
            "params": {
                "p": params.p,
                "k": params.k,
                "kprime": params.kprime,
                "alpha": params.alpha,
                "beta": params.beta,
                "gamma": params.gamma,
            },
            "generators_as_constructed": list(gens),
            **_base_payload(S),
            "hilbert": _hilbert_dict(profile),
            "symmetric": is_symmetric(S),
        }
        return Report(payload)

    if cmd.verb == "search":
        for key in ("e_range", "v_offset"):
            if key not in cmd.flags:
                raise UsageError("search needs --%s" % key.replace("_", "-"))
        lo, sep, hi = cmd.flags["e_range"].partition("..")
        if not sep or not lo.isdigit() or not hi.isdigit():
            raise UsageError("--e-range must look like LO..HI")
        bound_text = cmd.flags.get("gen_bound", "20e")
        kwargs = {}
        if bound_text.endswith("e"):
            try:
                kwargs["gen_bound_per_e"] = int(bound_text[:-1])
            except ValueError:
                raise UsageError("--gen-bound must be an integer or Ne form")
        else:
            try:
                kwargs["gen_bound"] = int(bound_text)
            except ValueError:
                raise UsageError("--gen-bound must be an integer or Ne form")
        config = SearchConfig(
            e_range=(int(lo), int(hi)),
            v_offset=cmd.flags["v_offset"],
            workers=cmd.flags.get("workers", 1),
            **kwargs,
        )
        results = search_decreasing(config)
        payload = {
            "e_range": [config.e_range[0], config.e_range[1]],
            "v_offset": config.v_offset,
            "count": len(results),
            "results": [
                {
                    "generators": list(S.gens),
                    "e": S.e,
                    "v": S.v,
                    "hilbert": _hilbert_dict(hilbert_function(S)),
                }
                for S in results
            ],
            "csv": search_results_csv(results),
        }
        return Report(payload)

    S = build(cmd.gens)

    if cmd.verb == "apery":
        payload = {**_base_payload(S), "apery": list(S.apery().elems)}
        return Report(payload)

    if cmd.verb == "hilbert":
        payload = {**_base_payload(S), "hilbert": _hilbert_dict(hilbert_function(S))}
        return Report(payload)

    if cmd.verb == "strata":
        tables = strata_tables(S)
        d_sets, c_sets, d_split = _tables_dicts(tables, cmd.flags.get("max_level"))
        payload = {
            **_base_payload(S),
            "ap_strata": _strata_dict(apery_strata(S)),
            "d_sets": d_sets,
            "c_sets": c_sets,
            "d_split": d_split,
            "k0": tables.k0,
            "r_stop": tables.r_stop,
        }
        return Report(payload)

    if cmd.verb == "info":
        profile = hilbert_function(S)
        tables = strata_tables(S)
        d_sets, c_sets, d_split = _tables_dicts(tables)
        payload = {
            **_base_payload(S),
            "apery": list(S.apery().elems),
            "ap_strata": _strata_dict(apery_strata(S)),
            "hilbert": _hilbert_dict(profile),
            "d_sets": d_sets,
            "c_sets": c_sets,
            "d_split": d_split,
            "k0": tables.k0,
            "decreasing_levels": list(profile.decreasing_levels),
            "tangent_cone_cm": is_tangent_cone_cm(S),
            "classification": _verdict_dicts(S),
        }
        return Report(payload)

    if cmd.verb == "check":
        return _run_check(cmd.what, S)

    raise UsageError("unknown verb %r" % cmd.verb)  # pragma: no cover


def _run_check(what: str, S: NumericalSemigroup) -> Report:
    base = _base_payload(S)
    if what == "symmetric":
        return Report({**base, "check": what, "symmetric": is_symmetric(S)})
    if what == "cm":
        return Report({**base, "check": what, "tangent_cone_cm": is_tangent_cone_cm(S)})
    if what == "delta":
        audit = audit_delta(S)
        levels = {str(k): list(v) for k, v in sorted(audit.levels.items())}
        return Report({**base, "check": what, "levels": levels, "ok": audit.ok})
    if what == "c3":
        pattern = classify_c3(S)
        found = pattern is not None
        payload = {
            **base,
            "check": what,
            "found": found,
            "witnesses": [list(w) for w in pattern.witnesses] if found else [],
        }
        return Report(payload)
    if what == "ap2-4":
        match = match_ap2_size4_case(S)
        payload = {
            **base,
            "check": what,
            "found": match is not None,
        }
        if match is not None:
            payload["case"] = match.case
            payload["witnesses"] = [list(w) for w in match.witnesses]
            payload["equality"] = match.equality
        return Report(payload)
    if what == "offset-3":
        verdict = check_offset3(S)
        payload = {**base, "check": what, **_offset3_dict(verdict)}
        return Report(payload, [], 0 if verdict.applicable else 2)
    if what == "offset-4":
        verdict = check_offset4(S)
        payload = {**base, "check": what, **_offset4_dict(verdict)}
        return Report(payload, [], 0 if verdict.applicable else 2)
    if what == "chain":
        verdict = check_chain_structure(S)
        payload = {**base, "check": what, **_chain_dict(verdict)}
        return Report(payload, [], 0 if verdict.applicable else 2)
    if what == "apery-tail":
        verdict = check_power_apery_tail(S)
        payload = {**base, "check": what, **_tail_dict(verdict)}
        return Report(payload, [], 0 if verdict.applicable else 2)
    raise UsageError("unknown check %r" % what)  # pragma: no cover


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
    sys.stdout.write(render(report, fmt))
    return report.exit_code


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main())
