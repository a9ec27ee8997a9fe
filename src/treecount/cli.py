"""Command-line front end.

Subcommands: color, sets, normalize, count, oracle, verify, census.  Input
trees come from a graph6 string, an edge-list file (0- or 1-based), or a
named family A/D/E with a size.  Each subcommand builds one record, numbered
as its input is: ``--json`` prints it as a schema-stable JSON object whose
only run-dependent field is ``generated_at``, and the text report is
rendered from it.  Exit codes: 0 success, 2 parse error, 3 size or
work-budget guard, 4 verification mismatch.
"""

from __future__ import annotations

import argparse
import json
import sys
from typing import Sequence

from .coloring import (
    SizeGuardError,
    all_maximum_matchings,
    canonical_coloring,
    dimension,
    red_green_components,
)
from .counting import (
    CensusClass,
    PhiError,
    PhiKind,
    _count_resolved,
    _count_sets_by_size,
    all_phi_assignments,
    census,
    resolve_tree_phi,
)
from .families import family_tree
from .fqoracle import ConstancyError, FqContext, GuardError, count_points, verify_polynomial
from .groupoid import CoefficientState, normalize_to_matching, rank_profile
from .matchings import admissible_sets, independent_sets, maximum_matching
from .polynomials import Poly, format_poly
from .trees import (
    Graph6Error,
    NotATreeError,
    Tree,
    _read_edge_list,
    check_enumeration_size,
    emit_graph6,
    enumerate_free_trees,
    parse_graph6,
)

EXIT_OK = 0
EXIT_PARSE = 2
EXIT_GUARD = 3
EXIT_MISMATCH = 4

FORCE_HELP = "override the work-budget guard of the F_q oracle"


class MismatchError(RuntimeError):
    """A verification run found a polynomial/oracle disagreement."""


def _add_input_args(p: argparse.ArgumentParser) -> argparse._MutuallyExclusiveGroup:
    """The tree input options; returns their exclusive group."""
    src = p.add_mutually_exclusive_group(required=True)
    src.add_argument("--graph6", help="graph6 string of a tree")
    src.add_argument("--edges", help="path to a 'u v' per line edge list")
    src.add_argument("--family", choices=["A", "D", "E"], help="named family")
    p.add_argument("--n", type=int, help="size for --family")
    p.add_argument(
        "--indexing",
        choices=["auto", "0", "1"],
        help="vertex numbering of --edges input (default auto)",
    )
    return src


def _check_input_options(args: argparse.Namespace) -> None:
    """Reject a size or numbering option given with an input it does not
    apply to, rather than ignore it."""
    if args.n is not None and args.family is None:
        raise ValueError("--n applies only to --family")
    if args.indexing is not None and args.edges is None:
        raise ValueError("--indexing applies only to --edges")


def _load_tree(args: argparse.Namespace) -> tuple[Tree, int]:
    """The input tree plus the numbering offset its report should echo."""
    _check_input_options(args)
    if args.graph6 is not None:
        return parse_graph6(args.graph6), 0
    if args.edges is not None:
        with open(args.edges, "r", encoding="utf-8") as fh:
            return _read_edge_list(fh.read(), args.indexing or "auto")
    if args.n is None:
        raise ValueError("--family needs --n")
    return family_tree(args.family, args.n), 0


def phi_spec_parse(text: str | None) -> str | dict[int, str] | None:
    """Parse 'generic', 'versal' or a per-component '0=generic,1=versal' list."""
    if text is None:
        return None
    s = text.strip().lower()
    if s in ("generic", "versal"):
        return s
    if not s:
        return None
    out: dict[int, str] = {}
    for part in s.split(","):
        if "=" not in part:
            raise PhiError(f"bad phi component spec {part!r}")
        key, _, val = (x.strip() for x in part.partition("="))
        if val not in ("generic", "versal"):
            raise PhiError(f"phi value must be generic or versal, got {val!r}")
        try:
            index = int(key)
        except ValueError:
            raise PhiError(f"phi component index must be an integer, got {key!r}") from None
        if index in out:
            raise PhiError(f"phi given twice for component index {index}")
        out[index] = val
    return out


def _emit(args: argparse.Namespace, record: dict, text: str) -> None:
    """Print the record as JSON under ``--json``, else its rendered text."""
    if args.json:
        import datetime

        record = {
            "command": args.command,
            "generated_at": datetime.datetime.now(datetime.timezone.utc).isoformat(),
            **record,
        }
        print(json.dumps(record, sort_keys=True))
    else:
        print(text)


def _shift_phi(spec, offset: int):
    if isinstance(spec, dict):
        return {k - offset: v for k, v in spec.items()}
    return spec


def _shift_pairs(pairs, offset: int) -> list[list[int]]:
    """Edges in sorted order, numbered as the input is."""
    return [[u + offset, v + offset] for u, v in sorted(pairs)]


def _dashed(pairs, sep: str) -> str:
    return sep.join(f"{u}-{v}" for u, v in pairs)


# ---------------------------------------------------------------------------
# subcommand runners
# ---------------------------------------------------------------------------

def _run_color(args) -> int:
    t, off = _load_tree(args)
    c = canonical_coloring(t)
    part = red_green_components(t, c)
    rec = {
        "colors": [c.colors[v].value for v in range(t.n)],
        "dominoes": _shift_pairs(c.dominoes, off),
        "dimension": dimension(t),
        "components": [[x + off for x in comp.vertices] for comp in part],
    }
    lines = [f"vertex {v + off}: {color}" for v, color in enumerate(rec["colors"])]
    lines.append("dominoes: " + (_dashed(rec["dominoes"], ", ") or "none"))
    lines.append(f"dimension: {rec['dimension']}")
    components = "; ".join(",".join(map(str, comp)) for comp in rec["components"])
    lines.append("components: " + (components or "none"))
    _emit(args, rec, "\n".join(lines))
    return EXIT_OK


def _admissible_line(a: dict) -> str:
    signs = " ".join(f"{v}^{'+' if s > 0 else '-'}" for v, s in zip(a["vertices"], a["signs"]))
    return f"component {a['component']}: {signs}"


#: The listings of ``sets`` in report order, keyed by their record key (the
#: title with spaces), each with the text of one listed item.
_SET_LISTINGS = {
    "maximum_matchings": lambda m: _dashed(m, " "),
    "independent_sets": lambda s: "{" + ",".join(map(str, s)) + "}",
    "maximum_independent_sets": None,  # counted, never listed
    "admissible_sets": _admissible_line,
}


def _listing_lines(key: str, value, render) -> list[str]:
    """The text of one listing of ``sets``: its count, or a header and one
    indented line per item."""
    title = key.replace("_", " ")
    if isinstance(value, int):
        return [f"{title}: {value}"]
    return [f"{title} ({len(value)}):"] + ["  " + render(x) for x in value]


def _run_sets(args) -> int:
    t, off = _load_tree(args)
    rec: dict = {}
    if args.matchings:
        rec["maximum_matchings"] = [_shift_pairs(m, off) for m in all_maximum_matchings(t)]
    if args.independent and args.count_only:
        # with no generic vertex the size vector is the independence polynomial
        sizes = _count_sets_by_size(t.order, t.parent, None, (None,) * t.n)
        rec["independent_sets"], rec["maximum_independent_sets"] = sum(sizes), sizes[-1]
    elif args.independent:
        rec["independent_sets"] = [sorted(x + off for x in s) for s in independent_sets(t)]
    if args.admissible:
        rec["admissible_sets"] = [
            {
                "component": comp.min_vertex + off,
                "vertices": [v + off for v in a.vertices],
                "signs": list(a.signs),
            }
            for comp in red_green_components(t, canonical_coloring(t))
            for a in admissible_sets(comp)
        ]
    if not rec:
        raise ValueError("pick at least one of --matchings --independent --admissible")
    if args.count_only:
        rec = {k: v if isinstance(v, int) else len(v) for k, v in rec.items()}
    lines = []
    for key, render in _SET_LISTINGS.items():
        if key in rec:
            lines += _listing_lines(key, rec[key], render)
    _emit(args, rec, "\n".join(lines))
    return EXIT_OK


def _run_normalize(args) -> int:
    t, off = _load_tree(args)
    m = maximum_matching(t)
    state = normalize_to_matching(CoefficientState.initial(t), t, canonical_coloring(t), m)
    rec = {
        "matching": _shift_pairs(m, off),
        "coefficients": {
            str(v + off): {str(w + off): e for w, e in sorted(state.vector(v).items())}
            for v in range(t.n)
        },
    }
    lines = [f"matching: {_dashed(rec['matching'], ' ')}"]
    for v, vec in rec["coefficients"].items():
        mono = " ".join(f"a{w}^{e}" if e != 1 else f"a{w}" for w, e in vec.items())
        lines.append(f"coefficient at {v}: {mono or '1'}")
    _emit(args, rec, "\n".join(lines))
    return EXIT_OK


def _run_count(args) -> int:
    t, off = _load_tree(args)
    resolved = resolve_tree_phi(t, _shift_phi(phi_spec_parse(args.phi), off))
    generic = [k is PhiKind.GENERIC for k in resolved.assignment.kinds]
    rank = rank_profile(resolved.partition, generic).rank
    poly = _count_resolved(t, resolved)
    rec = {"coeffs": list(poly.coeffs), "degree": poly.degree, "rank": rank}
    text = format_poly(poly)
    if args.format == "factored":
        text = format_poly(poly.divexact((Poly.q_power(1) - 1) ** rank))
        if rank:
            text = f"(q - 1)^{rank} * ({text})"
    _emit(args, rec, text)
    return EXIT_OK


def _run_oracle(args) -> int:
    t, off = _load_tree(args)
    spec = _shift_phi(phi_spec_parse(args.phi), off)
    got = count_points(t, spec, FqContext(args.q), force=args.force)
    rec = {"q": args.q, "count": got, "skipped": got is None}
    outcome = "no generic parameters" if rec["skipped"] else f"{rec['count']} points"
    _emit(args, rec, f"q={rec['q']}: {outcome}")
    return EXIT_OK


def _verify_one(t: Tree, spec, primes, force: bool) -> tuple[bool, list[dict], str]:
    """Whether the check passed, its per-prime rows and their text."""
    rep = verify_polynomial(t, spec, primes, force=force)
    rows = [c._asdict() for c in rep.checks]
    text = ", ".join(
        f"q={c['q']}:{c['status']}" + (f"({c['oracle']})" if c["oracle"] is not None else "")
        for c in rows
    )
    return rep.passed, rows, text


def _parse_primes(text: str) -> list[int]:
    primes = []
    for entry in text.split(","):
        if entry:
            try:
                primes.append(int(entry))
            except ValueError:
                raise ValueError(f"--primes entry must be an integer, got {entry!r}") from None
    if not primes:
        raise ValueError("--primes needs at least one prime")
    return primes


def _run_verify(args) -> int:
    primes = _parse_primes(args.primes)
    if args.max_n is not None:
        if args.phi is not None or args.n is not None:
            raise ValueError("--max-n sweeps every tree under every phi; drop --phi and --n")
        _check_input_options(args)
        if args.max_n < 1:
            raise ValueError("a tree has at least one vertex")
        check_enumeration_size(args.max_n)
        failures = 0
        rows = []
        for n in range(1, args.max_n + 1):
            for t in enumerate_free_trees(n):
                g6 = emit_graph6(t)
                part = red_green_components(t, canonical_coloring(t))
                for phi in all_phi_assignments(part):
                    ok, checks, text = _verify_one(t, phi, primes, args.force)
                    label = ",".join(k.value[0] for k in phi.kinds) or "-"
                    rows.append({"graph6": g6, "phi": label, "checks": checks})
                    if not ok:
                        failures += 1
                        print(f"FAIL {g6} phi={label}: {text}")
        rec = {
            "results": rows,
            "verdict": "PASS" if failures == 0 else f"FAIL ({failures} mismatches)",
        }
        _emit(args, rec, f"{rec['verdict']}: {len(rows)} (tree, phi) pairs over primes {primes}")
        if failures:
            raise MismatchError(rec["verdict"])
        return EXIT_OK
    t, off = _load_tree(args)
    spec = _shift_phi(phi_spec_parse(args.phi), off)
    ok, checks, text = _verify_one(t, spec, primes, args.force)
    rec = {"checks": checks, "verdict": "PASS" if ok else "FAIL"}
    _emit(args, rec, f"{rec['verdict']}: {text}")
    if not ok:
        raise MismatchError(text)
    return EXIT_OK


def _run_census(args) -> int:
    rep = census(args.n, CensusClass(args.census_class))
    rec = {
        "n": rep.n,
        "class": rep.census_class.value,
        "tree_count": rep.tree_count,
        "distinct_polynomial_count": rep.distinct_polynomial_count,
        "collisions": [list(b) for b in rep.collisions],
    }
    lines = [
        f"n={rec['n']} class={rec['class']}: {rec['tree_count']} trees, "
        f"{rec['distinct_polynomial_count']} distinct polynomials"
    ]
    if args.list_collisions:
        lines.extend("collision: " + " ".join(b) for b in rec["collisions"])
    _emit(args, rec, "\n".join(lines))
    return EXIT_OK


# ---------------------------------------------------------------------------

def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="treecount",
        description="Canonical tree colorings and point counts of the attached varieties.",
    )
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--json", action="store_true", help="emit a JSON report")
    sub = parser.add_subparsers(dest="command", required=True)

    def add_parser(name: str, help: str) -> argparse.ArgumentParser:
        return sub.add_parser(name, help=help, parents=[common])

    p_color = add_parser("color", help="canonical coloring, dominoes, dimension")
    _add_input_args(p_color)
    p_color.set_defaults(run=_run_color)

    p_sets = add_parser("sets", help="matchings, independent and admissible sets")
    _add_input_args(p_sets)
    p_sets.add_argument("--matchings", action="store_true")
    p_sets.add_argument("--independent", action="store_true")
    p_sets.add_argument("--admissible", action="store_true")
    p_sets.add_argument("--count-only", action="store_true")
    p_sets.set_defaults(run=_run_sets)

    p_norm = add_parser("normalize", help="normalized coefficient table")
    _add_input_args(p_norm)
    p_norm.set_defaults(run=_run_normalize)

    p_count = add_parser("count", help="the counting polynomial")
    _add_input_args(p_count)
    p_count.add_argument("--phi", help="generic | versal | '0=generic,2=versal'")
    p_count.add_argument("--format", choices=["pretty", "factored"], default="pretty")
    p_count.set_defaults(run=_run_count)

    p_oracle = add_parser("oracle", help="exact point count over one prime field")
    _add_input_args(p_oracle)
    p_oracle.add_argument("--q", type=int, required=True)
    p_oracle.add_argument("--phi")
    p_oracle.add_argument("--force", action="store_true", help=FORCE_HELP)
    p_oracle.set_defaults(run=_run_oracle)

    p_verify = add_parser("verify", help="polynomial vs the F_q point-count oracle")
    src = _add_input_args(p_verify)
    src.add_argument("--max-n", type=int, help="sweep all trees up to this size")
    p_verify.add_argument("--phi")
    p_verify.add_argument("--primes", default="2,3,5,7")
    p_verify.add_argument("--force", action="store_true", help=FORCE_HELP)
    p_verify.set_defaults(run=_run_verify)

    p_census = add_parser("census", help="polynomial coincidences at one size")
    p_census.add_argument("--n", type=int, required=True)
    p_census.add_argument(
        "--class",
        dest="census_class",
        choices=[c.value for c in CensusClass],
        required=True,
    )
    p_census.add_argument("--list-collisions", action="store_true")
    p_census.set_defaults(run=_run_census)
    return parser


def main(argv: Sequence[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.run(args)
    except (SizeGuardError, GuardError) as exc:
        print(f"guard: {exc}", file=sys.stderr)
        return EXIT_GUARD
    except (ConstancyError, MismatchError) as exc:
        print(f"verification failure: {exc}", file=sys.stderr)
        return EXIT_MISMATCH
    except (Graph6Error, NotATreeError, PhiError, OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_PARSE


if __name__ == "__main__":
    sys.exit(main())
