"""Command-line interface.

Generation commands print the graph text format so they pipe straight
into solve/check commands; analysis commands render text, JSON, or CSV.
Exit codes: 0 success, 2 usage or malformed input, 3 budget exceeded,
4 property violated by a verification suite.
"""

from __future__ import annotations

import argparse
import csv
import functools
import io
import math
import sys
import time

from . import __version__
from .core import Digraph, Graph, enumerate_orientations
from .covers import (
    RookCollectionParams,
    SemicoverSpec,
    SetCollection,
    build_rook_collection,
    estimate_acceptance_probability,
    verify_cover_all_acyclic,
    verify_semicover_all_acyclic,
)
from .errors import (
    BudgetExceededError,
    CertificationError,
    DichromaError,
    GraphFormatError,
    LimitExceededError,
)
from .generators import (
    BorsukSampleConfig,
    borsuk_sample,
    complete_multipartite,
    embed_kneser_tensor,
    embed_rook_in_kneser,
    kneser,
    named_graph,
    rook,
)
from .graphio import format_graph, parse_graph_text
from .parallel import default_threads
from .products import cartesian_product, tensor_product
from .randomized import (
    ExpectationParams,
    GBoundParams,
    RngSpec,
    certified_breaking_orientation,
    concentration_bound,
    estimate_biclique_event,
    expected_avoiding_count,
    g_bound,
    random_orientation,
)
from .records import certificate_payload, make_record, record_json
from .solvers import (
    SolveBudget,
    chromatic_number,
    dichromatic_number,
    dichromatic_number_of_graph,
    list_chromatic_number,
    list_dichromatic_number,
)
from .verify import (
    SuiteResult,
    bidirect_suite,
    catalogue_suite,
    kneser_chi_suite,
    sabidussi_suite,
    tensor_upper_bound_suite,
)

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_BUDGET = 3
EXIT_VIOLATED = 4


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    """The argument tree, built once per process; parsing leaves it
    unchanged."""
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--seed", type=int, default=0, help="64-bit master seed")
    common.add_argument("--threads", type=int, default=None,
                        help="worker threads (default: DICHROMA_THREADS, else 1)")
    common.add_argument("--timeout-s", type=int, default=120, dest="timeout_s")
    common.add_argument("--format", choices=("text", "json", "csv"), default="text")
    common.add_argument("--out", default=None, help="write output to this path")
    common.add_argument("--beta", type=int, default=None, help="block side for rook collections")
    common.add_argument("--lambda", type=float, default=None, dest="lam",
                        help="semicover size threshold")
    common.add_argument("--l", type=int, default=None, help="biclique/clique side size")
    common.add_argument("--l1", type=int, default=None, help="outer list size")
    common.add_argument("--l2", type=int, default=None, help="sampled sublist size")

    top = argparse.ArgumentParser(prog="dichroma", description=__doc__)
    top.add_argument("--version", action="version", version=f"dichroma {__version__}")
    groups = top.add_subparsers(dest="group", required=True)

    gen = groups.add_parser("gen", help="generate a graph").add_subparsers(
        dest="cmd", required=True)
    p = gen.add_parser("kneser", parents=[common])
    p.add_argument("n", type=int)
    p.add_argument("k", type=int)
    p = gen.add_parser("multipartite", parents=[common])
    p.add_argument("m", type=int)
    p.add_argument("r", type=int)
    p = gen.add_parser("rook", parents=[common])
    p.add_argument("n", type=int)
    p = gen.add_parser("borsuk", parents=[common])
    p.add_argument("--n", type=int, required=True, help="sphere dimension")
    p.add_argument("--a", type=float, required=True, help="adjacency threshold")
    p.add_argument("--delta", type=float, default=0.0)
    p.add_argument("--cube-side", type=float, required=True, dest="cube_side")
    p.add_argument("--perturbation-scale", type=float, default=1.0,
                   dest="perturbation_scale")
    p.add_argument("--max-points", type=int, default=5000, dest="max_points")
    p = gen.add_parser("named", parents=[common])
    p.add_argument("name")

    prod = groups.add_parser("product", help="graph products").add_subparsers(
        dest="cmd", required=True)
    for name in ("cartesian", "tensor"):
        p = prod.add_parser(name, parents=[common])
        p.add_argument("left")
        p.add_argument("right")

    orient = groups.add_parser("orient", help="orientations").add_subparsers(
        dest="cmd", required=True)
    p = orient.add_parser("random", parents=[common])
    p.add_argument("input", nargs="?", default="-")
    p = orient.add_parser("enumerate", parents=[common])
    p.add_argument("input", nargs="?", default="-")
    p.add_argument("--limit", type=int, default=24)
    p.add_argument("--max-list", type=int, default=64, dest="max_list")
    p = orient.add_parser("certified", parents=[common])
    p.add_argument("input", nargs="?", default="-")
    p.add_argument("--max-attempts", type=int, default=200, dest="max_attempts")
    p.add_argument("--break-cliques", action="store_true", dest="break_cliques")

    solve = groups.add_parser("solve", help="exact invariants").add_subparsers(
        dest="cmd", required=True)
    for name in ("chromatic", "dichromatic", "graph-dichromatic",
                 "list-chromatic", "list-dichromatic"):
        p = solve.add_parser(name, parents=[common])
        p.add_argument("input", nargs="?", default="-")

    check = groups.add_parser("check", help="validate witnesses").add_subparsers(
        dest="cmd", required=True)
    for name in ("coloring", "dicoloring"):
        p = check.add_parser(name, parents=[common])
        p.add_argument("input", nargs="?", default="-")
        p.add_argument("--coloring", required=True, dest="coloring_path")
    for name in ("cover", "semicover"):
        p = check.add_parser(name, parents=[common])
        p.add_argument("input", nargs="?", default="-")
        p.add_argument("--collection", default=None, dest="collection_path")

    mc = groups.add_parser("mc", help="Monte Carlo experiments").add_subparsers(
        dest="cmd", required=True)
    p = mc.add_parser("biclique", parents=[common])
    p.add_argument("input", nargs="?", default=None)
    p.add_argument("--graph", default=None, help="named graph instead of a file")
    p.add_argument("--trials", type=int, required=True)
    p = mc.add_parser("acceptance", parents=[common])
    p.add_argument("input", nargs="?", default="-")
    p.add_argument("--collection", default=None, dest="collection_path")
    p.add_argument("--trials", type=int, required=True)

    bound = groups.add_parser("bound", help="analytic bounds").add_subparsers(
        dest="cmd", required=True)
    p = bound.add_parser("g", parents=[common])
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--s", type=int, required=True)
    p.add_argument("--t", type=int, required=True)
    p.add_argument("--u", type=int, required=True)
    p = bound.add_parser("concentration", parents=[common])
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--c", type=float, required=True)
    p.add_argument("--t", type=float, required=True)
    p = bound.add_parser("expectation", parents=[common])
    p.add_argument("--m", type=int, required=True)
    p.add_argument("--u", type=int, required=True)
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--a", type=int, required=True)

    verify = groups.add_parser("verify", help="verification suites").add_subparsers(
        dest="cmd", required=True)
    p = verify.add_parser("sabidussi", parents=[common])
    p.add_argument("--max-n", type=int, default=4, dest="max_n")
    p.add_argument("--pairs", type=int, default=200)
    p.add_argument("--pair-max-n", type=int, default=5, dest="pair_max_n")
    p = verify.add_parser("bidirect", parents=[common])
    p.add_argument("--max-n", type=int, default=6, dest="max_n")
    p = verify.add_parser("kneser-chi", parents=[common])
    p = verify.add_parser("catalogue", parents=[common])
    p = verify.add_parser("tensor-bound", parents=[common])
    p.add_argument("--max-n", type=int, default=4, dest="max_n")

    embed = groups.add_parser("embed", help="verified embeddings").add_subparsers(
        dest="cmd", required=True)
    p = embed.add_parser("rook-in-kneser", parents=[common])
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--k", type=int, required=True)
    p = embed.add_parser("kneser-tensor", parents=[common])
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--n1", type=int, required=True)
    p.add_argument("--k1", type=int, required=True)

    return top


def _read_structure(path: str):
    if path in (None, "-"):
        return parse_graph_text(sys.stdin.read())
    with open(path, "r", encoding="utf-8") as fh:
        return parse_graph_text(fh.read())


def _need_graph(obj) -> Graph:
    if not isinstance(obj, Graph):
        raise GraphFormatError("this command needs an undirected graph ('g' header)")
    return obj


def _need_digraph(obj) -> Digraph:
    if not isinstance(obj, Digraph):
        raise GraphFormatError("this command needs a digraph ('d' header)")
    return obj


def _emit(args, text: str) -> None:
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _budget(args) -> SolveBudget:
    return SolveBudget(timeout=float(args.timeout_s))


def _threads(args) -> int:
    return args.threads if args.threads is not None else default_threads()


def _load_collection(args, d: Digraph) -> SetCollection:
    """Collection from an explicit JSON file, or the rook construction
    inferred from the digraph's vertex count and --beta."""
    import json

    if args.collection_path:
        with open(args.collection_path, "r", encoding="utf-8") as fh:
            payload = json.load(fh)
        return SetCollection(
            tuple(frozenset(m) for m in payload["members"]),
            payload["s"],
            payload["t"],
        )
    count = d.n if args.cmd in ("cover", "acceptance") else d.n // 2
    side = math.isqrt(count)
    if side * side != count:
        raise GraphFormatError(
            "cannot infer a rook collection: vertex count is not n^2 (use --collection)"
        )
    return build_rook_collection(RookCollectionParams(side, args.beta))


def _suite_payload(args, result: SuiteResult, started: float) -> tuple[str, int]:
    if not result.ok:
        code, status = EXIT_VIOLATED, "VIOLATED"
    elif result.unknown:
        code, status = EXIT_BUDGET, f"unknown ({result.unknown} rows over budget)"
    else:
        code, status = EXIT_OK, "ok"
    if args.format == "csv":
        buf = io.StringIO()
        keys = sorted({k for row in result.rows for k in row})
        writer = csv.DictWriter(buf, fieldnames=keys)
        writer.writeheader()
        for row in result.rows:
            writer.writerow(row)
        return buf.getvalue(), code
    if args.format == "json":
        record = make_record(
            f"verify {result.name}",
            {"seed": args.seed, **result.summary},
            seed=args.seed,
            runtime_ms=(time.perf_counter() - started) * 1000.0,
            ok=code == EXIT_OK,
            rows=result.rows,
        )
        return record_json(record), code
    lines = [f"verify {result.name}: {status}"]
    for key, value in sorted(result.summary.items()):
        lines.append(f"  {key}: {value}")
    return "\n".join(lines) + "\n", code


def _solve_command(args) -> int:
    started = time.perf_counter()
    obj = _read_structure(args.input)
    budget = _budget(args)
    if args.cmd == "chromatic":
        cert = chromatic_number(_need_graph(obj), budget)
    elif args.cmd == "graph-dichromatic":
        cert = dichromatic_number_of_graph(_need_graph(obj), budget)
    elif args.cmd == "dichromatic":
        cert = dichromatic_number(_need_digraph(obj), budget)
    elif args.cmd == "list-chromatic":
        cert = list_chromatic_number(_need_graph(obj), budget)
    else:
        cert = list_dichromatic_number(_need_digraph(obj), budget)
    runtime = (time.perf_counter() - started) * 1000.0
    if args.format == "json":
        record = make_record(
            f"solve {args.cmd}",
            {"timeout_s": args.timeout_s},
            runtime_ms=runtime,
            certificate=certificate_payload(cert),
        )
        _emit(args, record_json(record))
    elif args.format == "csv":
        _emit(args, f"command,value,exact,lower,upper\nsolve {args.cmd},"
                    f"{cert.value},{cert.exact},{cert.lower},{cert.upper}\n")
    else:
        _emit(args, f"{args.cmd} {cert.value if cert.exact else f'in [{cert.lower},{cert.upper}]'}\n")
    return EXIT_OK if cert.exact else EXIT_BUDGET


def _check_command(args) -> int:
    import json

    from .core import is_proper_coloring, is_proper_dicoloring
    from .records import coloring_from_payload

    obj = _read_structure(args.input)
    if args.cmd in ("coloring", "dicoloring"):
        with open(args.coloring_path, "r", encoding="utf-8") as fh:
            payload = json.load(fh)
        colouring = coloring_from_payload(payload)
        if args.cmd == "coloring":
            ok = is_proper_coloring(_need_graph(obj), colouring)
        else:
            ok = is_proper_dicoloring(_need_digraph(obj), colouring)
        detail = {"proper": ok}
    elif args.cmd == "cover":
        d = _need_digraph(obj)
        report = verify_cover_all_acyclic(d, _load_collection(args, d))
        ok = report.ok
        detail = {"covers_all_acyclic": ok}
        if report.counterexample is not None:
            detail["counterexample"] = sorted(report.counterexample)
    else:
        d = _need_digraph(obj)
        collection = _load_collection(args, d)
        side = math.isqrt(d.n // 2)
        lam = args.lam
        if lam is None:
            lam = (2 ** 13) * math.log(max(side, 2)) ** 2
        report = verify_semicover_all_acyclic(d, SemicoverSpec(collection, lam))
        ok = report.ok
        detail = {"semicovers_all_acyclic": ok, "lambda": lam}
        if report.counterexample is not None:
            detail["counterexample"] = sorted(report.counterexample)
    if args.format == "json":
        record = make_record(f"check {args.cmd}", {}, **detail)
        _emit(args, record_json(record))
    else:
        _emit(args, "".join(f"{k} {v}\n" for k, v in detail.items()))
    return EXIT_OK


def _mc_command(args) -> int:
    started = time.perf_counter()
    rng = RngSpec(args.seed)
    if args.cmd == "biclique":
        if args.graph:
            g = named_graph(args.graph)
        else:
            g = _need_graph(_read_structure(args.input or "-"))
        if args.l is None:
            raise GraphFormatError("mc biclique needs --l")
        est = estimate_biclique_event(g, args.l, args.trials, rng,
                                      threads=_threads(args),
                                      timeout=_budget(args).timeout)
        payload = {
            "estimate": est.estimate,
            "ci_low": est.ci_low,
            "ci_high": est.ci_high,
            "successes": est.successes,
            "trials": est.trials,
        }
        params = {"l": args.l, "trials": args.trials,
                  "graph": args.graph or "stdin"}
    else:
        d = _need_digraph(_read_structure(args.input))
        if args.l1 is None or args.l2 is None:
            raise GraphFormatError("mc acceptance needs --l1 and --l2")
        collection = _load_collection(args, d)
        from .core import ListAssignment

        L1 = ListAssignment.uniform(d.n, range(1, args.l1 + 1))
        est = estimate_acceptance_probability(
            d, collection, L1, args.l2, args.trials, rng,
            threads=_threads(args),
        )
        payload = {
            "estimate": est.event.estimate,
            "ci_low": est.event.ci_low,
            "ci_high": est.event.ci_high,
            "successes": est.event.successes,
            "trials": est.event.trials,
            "bound": est.bound if math.isfinite(est.bound) else None,
            "hypothesis_ok": est.hypothesis_ok,
        }
        params = {"l1": args.l1, "l2": args.l2, "trials": args.trials}
    runtime = (time.perf_counter() - started) * 1000.0
    if args.format == "json":
        record = make_record(f"mc {args.cmd}", params, seed=args.seed,
                             runtime_ms=runtime, **payload)
        _emit(args, record_json(record))
    elif args.format == "csv":
        keys = sorted(payload)
        _emit(args, ",".join(keys) + "\n"
              + ",".join(str(payload[k]) for k in keys) + "\n")
    else:
        _emit(args, "".join(f"{k} {v}\n" for k, v in sorted(payload.items())))
    return EXIT_OK


def _bound_command(args) -> int:
    if args.cmd == "g":
        if args.l1 is None or args.l2 is None:
            raise GraphFormatError("bound g needs --l1 and --l2")
        value = g_bound(GBoundParams(args.l1, args.l2, args.n, args.s, args.t, args.u))
        params = {"l1": args.l1, "l2": args.l2, "n": args.n,
                  "s": args.s, "t": args.t, "u": args.u}
    elif args.cmd == "concentration":
        value = concentration_bound(args.n, args.c, args.t)
        params = {"n": args.n, "c": args.c, "t": args.t}
    else:
        value = float(expected_avoiding_count(
            ExpectationParams(args.m, args.u, args.k, args.a)))
        params = {"m": args.m, "u": args.u, "k": args.k, "a": args.a}
    if args.format == "json":
        _emit(args, record_json(make_record(f"bound {args.cmd}", params, value=value)))
    else:
        _emit(args, f"{value!r}\n")
    return EXIT_OK


def _embed_command(args) -> int:
    if args.cmd == "rook-in-kneser":
        witness = embed_rook_in_kneser(args.n, args.k)
        params = {"n": args.n, "k": args.k}
    else:
        witness = embed_kneser_tensor(args.n, args.k, args.n1, args.k1)
        params = {"n": args.n, "k": args.k, "n1": args.n1, "k1": args.k1}
    payload = {
        "source_vertices": witness.source.n,
        "target_vertices": witness.target.n,
        "mapping": list(witness.mapping),
        "verified": True,
    }
    if args.format == "json":
        _emit(args, record_json(make_record(f"embed {args.cmd}", params, **payload)))
    else:
        _emit(args, f"embedded {witness.source.n} vertices into "
                    f"{witness.target.n}; adjacency preserved\n")
    return EXIT_OK


def _dispatch(args) -> int:
    if args.group == "gen":
        if args.cmd == "kneser":
            g = kneser(args.n, args.k)
        elif args.cmd == "multipartite":
            g = complete_multipartite(args.m, args.r)
        elif args.cmd == "rook":
            g = rook(args.n)
        elif args.cmd == "borsuk":
            g = borsuk_sample(BorsukSampleConfig(
                n=args.n, a=args.a, cube_side=args.cube_side, delta=args.delta,
                perturbation_scale=args.perturbation_scale,
                max_points=args.max_points))
        else:
            g = named_graph(args.name)
        _emit(args, format_graph(g))
        return EXIT_OK

    if args.group == "product":
        left = _read_structure(args.left)
        right = _read_structure(args.right)
        fn = cartesian_product if args.cmd == "cartesian" else tensor_product
        try:
            _emit(args, format_graph(fn(left, right)))
        except TypeError as exc:
            raise GraphFormatError(str(exc))
        return EXIT_OK

    if args.group == "orient":
        if args.cmd == "random":
            g = _need_graph(_read_structure(args.input))
            _emit(args, format_graph(random_orientation(g, RngSpec(args.seed))))
            return EXIT_OK
        if args.cmd == "certified":
            g = _need_graph(_read_structure(args.input))
            if args.l is None:
                raise GraphFormatError("orient certified needs --l")
            d = certified_breaking_orientation(
                g, args.l, RngSpec(args.seed),
                max_attempts=args.max_attempts,
                break_cliques=args.break_cliques,
                timeout=_budget(args).timeout)
            _emit(args, format_graph(d))
            return EXIT_OK
        g = _need_graph(_read_structure(args.input))
        count = 0
        listed = []
        for o in enumerate_orientations(g, limit=args.limit):
            if count < args.max_list:
                listed.append("".join("1" if b else "0" for b in o.direction))
            count += 1
        record = make_record("orient enumerate",
                             {"limit": args.limit, "max_list": args.max_list},
                             count=count, orientations=listed)
        if args.format == "json":
            _emit(args, record_json(record))
        else:
            _emit(args, f"orientations {count}\n")
        return EXIT_OK

    if args.group == "solve":
        return _solve_command(args)
    if args.group == "check":
        return _check_command(args)
    if args.group == "mc":
        return _mc_command(args)
    if args.group == "bound":
        return _bound_command(args)
    if args.group == "embed":
        return _embed_command(args)

    started = time.perf_counter()
    budget = _budget(args)
    threads = _threads(args)
    if args.cmd == "sabidussi":
        result = sabidussi_suite(max_n=args.max_n, random_pairs=args.pairs,
                                 pair_max_n=args.pair_max_n, seed=args.seed,
                                 threads=threads, budget=budget)
    elif args.cmd == "bidirect":
        result = bidirect_suite(max_n=args.max_n, threads=threads, budget=budget)
    elif args.cmd == "kneser-chi":
        result = kneser_chi_suite(budget=budget)
    elif args.cmd == "tensor-bound":
        result = tensor_upper_bound_suite(max_n=args.max_n, threads=threads,
                                          budget=budget)
    else:
        result = catalogue_suite(seed=args.seed, threads=threads, budget=budget)
    text, code = _suite_payload(args, result, started)
    _emit(args, text)
    return code


def run(argv) -> int:
    """Execute one command line; returns the process exit code."""
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return EXIT_OK if exc.code in (0, None) else EXIT_USAGE
    try:
        return _dispatch(args)
    except (BudgetExceededError, LimitExceededError, CertificationError) as exc:
        print(f"dichroma: budget exceeded: {exc}", file=sys.stderr)
        return EXIT_BUDGET
    except (GraphFormatError, ValueError) as exc:
        print(f"dichroma: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except DichromaError as exc:
        print(f"dichroma: {exc}", file=sys.stderr)
        return EXIT_USAGE


def main() -> None:
    sys.exit(run(sys.argv[1:]))


if __name__ == "__main__":
    main()
