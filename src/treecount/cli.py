"""Command-line front end.

Subcommands: color, sets, normalize, count, oracle, verify, census.  Input
trees come from a graph6 string, an edge-list file (0- or 1-based), or a
named family A/D/E with a size.  Reports echo the numbering of the input;
``--json`` switches to a schema-stable JSON object whose only run-dependent
field is ``generated_at``.  Exit codes: 0 success, 2 parse error, 3 size or
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
from .fqoracle import (
    ConstancyError,
    FqContext,
    GuardError,
    count_points,
    verify_polynomial,
)
from .groupoid import CoefficientState, normalize_to_matching, rank_profile
from .matchings import (
    admissible_sets,
    independent_sets,
    maximum_matching,
)
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


def _emit(args: argparse.Namespace, payload: dict, text: str) -> None:
    if args.json:
        import datetime

        payload = {
            "command": args.command,
            "generated_at": datetime.datetime.now(datetime.timezone.utc).isoformat(),
            **payload,
        }
        print(json.dumps(payload, sort_keys=True))
    else:
        print(text)


def _shift_phi(spec, offset: int):
    if isinstance(spec, dict):
        return {k - offset: v for k, v in spec.items()}
    return spec


# ---------------------------------------------------------------------------
# subcommand runners
# ---------------------------------------------------------------------------

def _run_color(args) -> int:
    t, off = _load_tree(args)
    c = canonical_coloring(t)
    part = red_green_components(t, c)
    lines = [
        f"vertex {v + off}: {c.colors[v].value}" for v in range(t.n)
    ]
    lines.append(
        "dominoes: " + (", ".join(f"{u + off}-{v + off}" for u, v in sorted(c.dominoes)) or "none")
    )
    d = dimension(t)
    lines.append(f"dimension: {d}")
    lines.append(
        "components: "
        + (
            "; ".join(
                ",".join(str(x + off) for x in comp.vertices) for comp in part
            )
            or "none"
        )
    )
    payload = {
        "colors": [c.colors[v].value for v in range(t.n)],
        "dominoes": [[u + off, v + off] for u, v in sorted(c.dominoes)],
        "dimension": d,
        "components": [[x + off for x in comp.vertices] for comp in part],
    }
    _emit(args, payload, "\n".join(lines))
    return EXIT_OK


def _run_sets(args) -> int:
    t, off = _load_tree(args)
    lines: list[str] = []
    payload: dict = {}
    if args.matchings:
        ms = all_maximum_matchings(t)
        payload["maximum_matchings"] = (
            len(ms)
            if args.count_only
            else [[[u + off, v + off] for u, v in sorted(m)] for m in ms]
        )
        if args.count_only:
            lines.append(f"maximum matchings: {len(ms)}")
        else:
            lines.append(f"maximum matchings ({len(ms)}):")
            lines.extend(
                "  " + " ".join(f"{u + off}-{v + off}" for u, v in sorted(m))
                for m in ms
            )
    if args.independent:
        if args.count_only:
            # with no generic vertex the size vector is the independence
            # polynomial
            sizes = _count_sets_by_size(t.order, t.parent, None, (None,) * t.n)
            total, maximum = sum(sizes), sizes[-1]
            payload["independent_sets"] = total
            payload["maximum_independent_sets"] = maximum
            lines.append(f"independent sets: {total}")
            lines.append(f"maximum independent sets: {maximum}")
        else:
            sets = [sorted(x + off for x in s) for s in independent_sets(t)]
            payload["independent_sets"] = sets
            lines.append(f"independent sets ({len(sets)}):")
            lines.extend("  {" + ",".join(map(str, s)) + "}" for s in sets)
    if args.admissible:
        adm = [
            {
                "component": comp.min_vertex + off,
                "vertices": [v + off for v in a.vertices],
                "signs": list(a.signs),
            }
            for comp in red_green_components(t, canonical_coloring(t))
            for a in admissible_sets(comp)
        ]
        payload["admissible_sets"] = len(adm) if args.count_only else adm
        if args.count_only:
            lines.append(f"admissible sets: {len(adm)}")
        else:
            lines.append(f"admissible sets ({len(adm)}):")
            lines.extend(
                "  component {}: {}".format(
                    a["component"],
                    " ".join(
                        f"{v}^{'+' if s > 0 else '-'}"
                        for v, s in zip(a["vertices"], a["signs"])
                    ),
                )
                for a in adm
            )
    if not lines:
        raise ValueError("pick at least one of --matchings --independent --admissible")
    _emit(args, payload, "\n".join(lines))
    return EXIT_OK


def _run_normalize(args) -> int:
    t, off = _load_tree(args)
    c = canonical_coloring(t)
    m = maximum_matching(t)
    state = normalize_to_matching(CoefficientState.initial(t), t, c, m)
    rows = []
    for v in range(t.n):
        vec = state.vector(v)
        if vec:
            mono = " ".join(
                f"a{w + off}^{e}" if e != 1 else f"a{w + off}"
                for w, e in sorted(vec.items())
            )
        else:
            mono = "1"
        rows.append((v + off, mono, vec))
    text = "\n".join(
        [f"matching: {' '.join(f'{u + off}-{v + off}' for u, v in sorted(m))}"]
        + [f"coefficient at {v}: {mono}" for v, mono, _ in rows]
    )
    payload = {
        "matching": [[u + off, v + off] for u, v in sorted(m)],
        "coefficients": {
            str(v): {str(w + off): e for w, e in vec.items()} for v, _, vec in rows
        },
    }
    _emit(args, payload, text)
    return EXIT_OK


def _poly_payload(t: Tree, phi_spec) -> tuple[Poly, int, dict]:
    resolved = resolve_tree_phi(t, phi_spec)
    rank = rank_profile(
        resolved.partition, [k is PhiKind.GENERIC for k in resolved.assignment.kinds]
    ).rank
    poly = _count_resolved(t, resolved)
    return poly, rank, {
        "coeffs": list(poly.coeffs),
        "degree": poly.degree,
        "rank": rank,
    }


def _run_count(args) -> int:
    t, off = _load_tree(args)
    spec = _shift_phi(phi_spec_parse(args.phi), off)
    poly, rank, payload = _poly_payload(t, spec)
    if args.json:
        _emit(args, payload, json.dumps(payload, sort_keys=True))
        return EXIT_OK
    if args.format == "factored":
        quotient = poly.divexact((Poly.q_power(1) - 1) ** rank)
        body = f"(q - 1)^{rank} * ({format_poly(quotient)})" if rank else format_poly(quotient)
        print(body)
        return EXIT_OK
    print(format_poly(poly))
    return EXIT_OK


def _run_oracle(args) -> int:
    t, off = _load_tree(args)
    spec = _shift_phi(phi_spec_parse(args.phi), off)
    ctx = FqContext(args.q)
    got = count_points(t, spec, ctx, force=args.force)
    if got is None:
        _emit(args, {"q": args.q, "count": None, "skipped": True},
              f"q={args.q}: no generic parameters")
    else:
        _emit(args, {"q": args.q, "count": got, "skipped": False},
              f"q={args.q}: {got} points")
    return EXIT_OK


def _verify_one(t: Tree, spec, primes, force: bool) -> tuple[bool, list[dict], str]:
    rep = verify_polynomial(t, spec, primes, force=force)
    rows = [
        {"q": c.q, "status": c.status, "oracle": c.oracle, "expected": c.expected}
        for c in rep.checks
    ]
    text = ", ".join(
        f"q={c.q}:{c.status}" + (f"({c.oracle})" if c.oracle is not None else "")
        for c in rep.checks
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
                part = red_green_components(t, canonical_coloring(t))
                for phi in all_phi_assignments(part):
                    ok, checks, text = _verify_one(t, phi, primes, args.force)
                    label = ",".join(k.value[0] for k in phi.kinds) or "-"
                    rows.append(
                        {"graph6": emit_graph6(t), "phi": label, "checks": checks}
                    )
                    if not ok:
                        failures += 1
                        print(f"FAIL {emit_graph6(t)} phi={label}: {text}")
        verdict = "PASS" if failures == 0 else f"FAIL ({failures} mismatches)"
        _emit(args, {"results": rows, "verdict": verdict},
              f"{verdict}: {len(rows)} (tree, phi) pairs over primes {primes}")
        if failures:
            raise MismatchError(verdict)
        return EXIT_OK
    t, off = _load_tree(args)
    spec = _shift_phi(phi_spec_parse(args.phi), off)
    ok, checks, text = _verify_one(t, spec, primes, args.force)
    _emit(args, {"checks": checks, "verdict": "PASS" if ok else "FAIL"},
          ("PASS: " if ok else "FAIL: ") + text)
    if not ok:
        raise MismatchError(text)
    return EXIT_OK


def _run_census(args) -> int:
    rep = census(args.n, CensusClass(args.census_class))
    lines = [
        f"n={rep.n} class={rep.census_class.value}: "
        f"{rep.tree_count} trees, {rep.distinct_polynomial_count} distinct polynomials"
    ]
    if args.list_collisions:
        for bucket in rep.collisions:
            lines.append("collision: " + " ".join(bucket))
    payload = {
        "n": rep.n,
        "class": rep.census_class.value,
        "tree_count": rep.tree_count,
        "distinct_polynomial_count": rep.distinct_polynomial_count,
        "collisions": [list(b) for b in rep.collisions],
    }
    _emit(args, payload, "\n".join(lines))
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
