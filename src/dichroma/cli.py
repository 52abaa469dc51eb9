"""Command-line interface.

Generation commands print the graph text format so they pipe straight
into solve/check commands. Each analysis command returns its record, its
text and its CSV rows, and _dispatch writes the one --format asks for.
Exit codes: 0 success, 2 usage or malformed input, 3 budget exceeded,
4 property violated by a verification suite.
"""

from __future__ import annotations

import argparse
import functools
import importlib.util
import math
import sys
import time
from itertools import islice

from . import __version__
from .core import (Deadline, Digraph, Graph, ListAssignment, enumerate_orientations,
                   is_proper_coloring, is_proper_dicoloring)
from .errors import BudgetExceededError, CertificationError, DichromaError, GraphFormatError


def _lazy(name: str):
    """The submodule dichroma.<name>, registered in sys.modules and bound on
    the package, whose code runs on its first attribute access; a module
    already imported is reused."""
    full = f"{__package__}.{name}"
    module = sys.modules.get(full)
    if module is None:
        spec = importlib.util.find_spec(full)
        spec.loader = importlib.util.LazyLoader(spec.loader)
        module = sys.modules[full] = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(module)
    setattr(sys.modules[__package__], name, module)
    return module


# A command runs only the modules it calls into. catalogue and parallel
# are registered although no handler names them: bench/layers.py looks
# each traced module up in sys.modules right after importing this one.
graphio, products, randomized, records, solvers, verify = map(
    _lazy, ("graphio", "products", "randomized", "records", "solvers", "verify"))
_lazy("catalogue")
_lazy("parallel")

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_BUDGET = 3
EXIT_VIOLATED = 4


def _at_least(least: int):
    """The argparse type of an integer count of at least least."""
    def count(text: str) -> int:
        value = int(text)
        if value < least:
            raise argparse.ArgumentTypeError(f"must be at least {least}, got {value}")
        return value
    return count


def _add_seed(p) -> None:
    p.add_argument("--seed", type=int, default=0, help="64-bit master seed")


def _add_collection(p) -> None:
    source = p.add_mutually_exclusive_group()
    source.add_argument("--collection", default=None, dest="collection_path")
    source.add_argument("--beta", type=int, default=None, help="block side for rook collections")


def _add_threads(p) -> None:
    p.add_argument("--threads", type=_at_least(1), default=1,
                   help="worker processes for mc, verify sabidussi and verify "
                        "tensor-bound, at most one per CPU (default: 1); the "
                        "other suites run serially")


def _gen_leaves(gen, common) -> None:
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
    p = gen.add_parser("named", parents=[common])
    p.add_argument("name")


def _product_leaves(prod, common) -> None:
    for name in ("cartesian", "tensor"):
        p = prod.add_parser(name, parents=[common])
        p.add_argument("left")
        p.add_argument("right")


def _orient_leaves(orient, common) -> None:
    p = orient.add_parser("random", parents=[common])
    p.add_argument("input", nargs="?", default="-")
    _add_seed(p)
    p = orient.add_parser("enumerate", parents=[common])
    p.add_argument("input", nargs="?", default="-")
    p.add_argument("--max-list", type=_at_least(0), default=64, dest="max_list")
    p = orient.add_parser("certified", parents=[common])
    p.add_argument("input", nargs="?", default="-")
    p.add_argument("--l", type=int, required=True, help="biclique/clique side size")
    _add_seed(p)
    p.add_argument("--max-attempts", type=_at_least(1), default=200, dest="max_attempts")
    p.add_argument("--break-cliques", action="store_true", dest="break_cliques")


def _solve_leaves(solve, common) -> None:
    for name in ("chromatic", "dichromatic", "graph-dichromatic",
                 "list-chromatic", "list-dichromatic"):
        p = solve.add_parser(name, parents=[common])
        p.add_argument("input", nargs="?", default="-")


def _check_leaves(check, common) -> None:
    for name in ("coloring", "dicoloring"):
        p = check.add_parser(name, parents=[common])
        p.add_argument("input", nargs="?", default="-")
        p.add_argument("--coloring", required=True, dest="coloring_path")
    for name in ("cover", "semicover"):
        p = check.add_parser(name, parents=[common])
        p.add_argument("input", nargs="?", default="-")
        _add_collection(p)
    # p is now the semicover leaf
    p.add_argument("--lambda", type=float, default=None, dest="lam",
                   help="semicover size threshold")


def _mc_leaves(mc, common) -> None:
    p = mc.add_parser("biclique", parents=[common])
    p.add_argument("input", nargs="?", default="-")
    p.add_argument("--graph", default=None, help="named graph instead of a file")
    p.add_argument("--trials", type=int, required=True)
    p.add_argument("--l", type=int, required=True, help="biclique side size")
    _add_seed(p)
    _add_threads(p)
    p = mc.add_parser("acceptance", parents=[common])
    p.add_argument("input", nargs="?", default="-")
    _add_collection(p)
    p.add_argument("--trials", type=int, required=True)
    p.add_argument("--l1", type=int, required=True, help="outer list size")
    p.add_argument("--l2", type=int, required=True, help="sampled sublist size")
    _add_seed(p)
    _add_threads(p)


def _bound_leaves(bound, common) -> None:
    p = bound.add_parser("g", parents=[common])
    p.add_argument("--l1", type=int, required=True, help="outer list size")
    p.add_argument("--l2", type=int, required=True, help="sampled sublist size")
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


def _verify_leaves(suites, common) -> None:
    # every suite takes --threads; only the two that draw random cases take --seed
    leaves = {name: suites.add_parser(name, parents=[common]) for name in
              ("sabidussi", "bidirect", "kneser-chi", "catalogue", "tensor-bound")}
    for name, p in leaves.items():
        if name in ("sabidussi", "catalogue"):
            _add_seed(p)
        _add_threads(p)
    p = leaves["sabidussi"]
    p.add_argument("--max-n", type=_at_least(0), default=4, dest="max_n")
    p.add_argument("--pairs", type=_at_least(0), default=200)
    p.add_argument("--pair-max-n", type=_at_least(1), default=5, dest="pair_max_n")
    leaves["bidirect"].add_argument("--max-n", type=_at_least(1), default=6, dest="max_n")
    leaves["tensor-bound"].add_argument("--max-n", type=_at_least(1), default=4, dest="max_n")


def _embed_leaves(embed, common) -> None:
    p = embed.add_parser("rook-in-kneser", parents=[common])
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--k", type=int, required=True)
    p = embed.add_parser("kneser-tensor", parents=[common])
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--n1", type=int, required=True)
    p.add_argument("--k1", type=int, required=True)


# Each command group: its help line and the function adding its leaves.
_GROUPS = {
    "gen": ("generate a graph", _gen_leaves),
    "product": ("graph products", _product_leaves),
    "orient": ("orientations", _orient_leaves),
    "solve": ("exact invariants", _solve_leaves),
    "check": ("validate witnesses", _check_leaves),
    "mc": ("Monte Carlo experiments", _mc_leaves),
    "bound": ("analytic bounds", _bound_leaves),
    "verify": ("verification suites", _verify_leaves),
    "embed": ("verified embeddings", _embed_leaves),
}


@functools.cache
def _build_parser(group: str | None = None) -> argparse.ArgumentParser:
    """The argument tree, built once per process and group: every group,
    but leaf commands only under group (under all groups when it is None).
    Parsing leaves it unchanged."""
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--timeout-s", type=int, default=120, dest="timeout_s")
    common.add_argument("--format", choices=("text", "json", "csv"), default="text")
    common.add_argument("--out", default=None, help="write output to this path")

    top = argparse.ArgumentParser(prog="dichroma", description=__doc__)
    top.add_argument("--version", action="version", version=f"dichroma {__version__}")
    groups = top.add_subparsers(dest="group", required=True)

    for name, (help_text, add_leaves) in _GROUPS.items():
        parser = groups.add_parser(name, help=help_text)
        if group in (None, name):
            add_leaves(parser.add_subparsers(dest="cmd", required=True), common)
    return top


def _read_structure(path: str, deadline: Deadline | None = None):
    """The graph or digraph in path (stdin for "-"); deadline, if given,
    is polled while the text is parsed."""
    if path in (None, "-"):
        return graphio.parse_graph_text(sys.stdin.read(), deadline)
    return graphio.parse_graph_file(path, deadline)


def _need(obj, kind):
    """obj when it is a kind (Graph or Digraph), else GraphFormatError."""
    if not isinstance(obj, kind):
        wanted = "an undirected graph ('g' header)" if kind is Graph else "a digraph ('d' header)"
        raise GraphFormatError(f"this command needs {wanted}")
    return obj


def _read_json(path: str, n: int, **fields: int) -> dict:
    """The JSON object in path. Each keyword names a required field and
    its depth: 0 an integer, 1 a list of integers, 2 a list of lists of
    vertices in 0..n-1. Any other shape raises GraphFormatError."""
    import json

    with open(path, "r", encoding="utf-8") as fh:
        payload = json.load(fh)

    def fits(value, depth: int, vertex: bool) -> bool:
        if depth == 0:
            return type(value) is int and (not vertex or 0 <= value < n)
        return isinstance(value, list) and all(fits(x, depth - 1, vertex) for x in value)

    if not isinstance(payload, dict) or not all(
            key in payload and fits(payload[key], depth, depth == 2)
            for key, depth in fields.items()):
        shapes = ("an integer", "a list of integers", f"a list of lists of vertices in 0..{n - 1}")
        wanted = ", ".join(f"{key} {shapes[depth]}" for key, depth in fields.items())
        raise GraphFormatError(f"{path}: expected a JSON object with {wanted}")
    return payload


def _runtime_ms(started: float) -> float:
    return (time.perf_counter() - started) * 1000.0


def _load_collection(args, d: Digraph):
    """Collection from an explicit JSON file, or the rook construction
    inferred from the digraph's vertex count and --beta."""
    from .covers import SetCollection, build_rook_collection

    if args.collection_path:
        payload = _read_json(args.collection_path, d.n, members=2, s=0, t=0)
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
    return build_rook_collection(side, args.beta)


# Each handler takes the parsed arguments and the command's start time and
# returns (record, text, CSV rows or None, exit code). Graph commands return
# no record: their text is the graph, whatever the format.


def _gen_command(args, started: float):
    from . import generators

    if args.cmd == "kneser":
        g = generators.kneser(args.n, args.k)
    elif args.cmd == "multipartite":
        g = generators.complete_multipartite(args.m, args.r)
    elif args.cmd == "rook":
        g = generators.rook(args.n)
    elif args.cmd == "borsuk":
        g = generators.borsuk_sample(args.n, args.a, args.cube_side, args.delta,
                                     Deadline(args.timeout_s))
    else:
        g = generators.named_graph(args.name)
    return None, graphio.format_graph(g), None, EXIT_OK


def _product_command(args, started: float):
    deadline = Deadline(args.timeout_s)
    left = _read_structure(args.left, deadline)
    right = _read_structure(args.right, deadline)
    fn = products.cartesian_product if args.cmd == "cartesian" else products.tensor_product
    try:
        product = fn(left, right)
    except TypeError as exc:
        raise GraphFormatError(str(exc))
    return None, graphio.format_graph(product), None, EXIT_OK


def _orient_command(args, started: float):
    deadline = Deadline(args.timeout_s)
    g = _need(_read_structure(args.input, deadline), Graph)
    if args.cmd == "random":
        d = randomized.random_orientation(g, randomized.RngSpec(args.seed))
        return None, graphio.format_graph(d), None, EXIT_OK
    if args.cmd == "certified":
        d = randomized.certified_breaking_orientation(
            g, args.l, randomized.RngSpec(args.seed),
            max_attempts=args.max_attempts,
            break_cliques=args.break_cliques,
            deadline=deadline)
        return None, graphio.format_graph(d), None, EXIT_OK
    count = 1 << g.m
    listed = [records.orientation_bits(o)
              for o in islice(enumerate_orientations(g), args.max_list)]
    record = records.make_record("orient enumerate", {"max_list": args.max_list},
                                 count=count, orientations=listed)
    return record, f"orientations {count}\n", None, EXIT_OK


def _solve_command(args, started: float):
    deadline = Deadline(args.timeout_s)
    obj = _read_structure(args.input, deadline)
    if args.cmd == "chromatic":
        cert = solvers.chromatic_number(_need(obj, Graph), deadline)
    elif args.cmd == "graph-dichromatic":
        cert = solvers.dichromatic_number_of_graph(_need(obj, Graph), deadline)
    elif args.cmd == "dichromatic":
        cert = solvers.dichromatic_number(_need(obj, Digraph), deadline)
    elif args.cmd == "list-chromatic":
        cert = solvers.list_chromatic_number(_need(obj, Graph), deadline)
    else:
        cert = solvers.list_dichromatic_number(_need(obj, Digraph), deadline)
    record = records.make_record(
        f"solve {args.cmd}",
        {"timeout_s": args.timeout_s},
        runtime_ms=_runtime_ms(started),
        certificate=records.certificate_payload(cert),
    )
    row = {"command": record["command"], "value": cert.value, "exact": cert.exact,
           "lower": cert.lower, "upper": cert.upper}
    shown = cert.value if cert.exact else f"in [{cert.lower},{cert.upper}]"
    return record, f"{args.cmd} {shown}\n", [row], EXIT_OK if cert.exact else EXIT_BUDGET


def _check_command(args, started: float):
    deadline = Deadline(args.timeout_s)
    obj = _read_structure(args.input, deadline)
    if args.cmd in ("coloring", "dicoloring"):
        colouring = records.coloring_from_payload(
            _read_json(args.coloring_path, obj.n, palette=1, assignment=1))
        if args.cmd == "coloring":
            ok = is_proper_coloring(_need(obj, Graph), colouring)
        else:
            ok = is_proper_dicoloring(_need(obj, Digraph), colouring)
        detail = {"proper": ok}
        params = {}
    else:
        from .covers import verify_cover_all_acyclic, verify_semicover_all_acyclic

        d = _need(obj, Digraph)
        collection = _load_collection(args, d)
        if args.cmd == "cover":
            missed = verify_cover_all_acyclic(d, collection, deadline)
            detail = {"covers_all_acyclic": missed is None}
        else:
            lam = args.lam
            if lam is None:
                lam = (2 ** 13) * math.log(max(math.isqrt(d.n // 2), 2)) ** 2
            missed = verify_semicover_all_acyclic(d, collection, lam, deadline)
            detail = {"semicovers_all_acyclic": missed is None, "lambda": lam}
        if missed is not None:
            detail["counterexample"] = sorted(missed)
        params = {"collection": args.collection_path, "beta": args.beta}
    record = records.make_record(f"check {args.cmd}", params, **detail)
    return record, "".join(f"{k} {v}\n" for k, v in detail.items()), None, EXIT_OK


def _mc_command(args, started: float):
    rng = randomized.RngSpec(args.seed)
    deadline = Deadline(args.timeout_s)
    if args.cmd == "biclique":
        if args.graph:
            from .generators import named_graph

            g = named_graph(args.graph)
        else:
            g = _need(_read_structure(args.input, deadline), Graph)
        payload = randomized.estimate_biclique_event(
            g, args.l, args.trials, rng, threads=args.threads, deadline=deadline)._asdict()
        params = {"l": args.l, "trials": args.trials,
                  "graph": args.graph or ("stdin" if args.input == "-" else args.input)}
    else:
        d = _need(_read_structure(args.input, deadline), Digraph)
        collection = _load_collection(args, d)
        from .covers import estimate_acceptance_probability

        L1 = ListAssignment.uniform(d.n, range(1, args.l1 + 1))
        est = estimate_acceptance_probability(
            d, collection, L1, args.l2, args.trials, rng,
            threads=args.threads, deadline=deadline,
        )
        payload = {
            **est.event._asdict(),
            "bound": est.bound if math.isfinite(est.bound) else None,
            "hypothesis_ok": est.hypothesis_ok,
        }
        params = {"l1": args.l1, "l2": args.l2, "trials": args.trials,
                  "collection": args.collection_path, "beta": args.beta}
    record = records.make_record(f"mc {args.cmd}", params, seed=args.seed,
                                 runtime_ms=_runtime_ms(started), **payload)
    text = "".join(f"{k} {v}\n" for k, v in sorted(payload.items()))
    return record, text, [payload], EXIT_OK


def _bound_command(args, started: float):
    if args.cmd == "g":
        value = randomized.g_bound(args.l1, args.l2, args.n, args.s, args.t, args.u)
        params = {"l1": args.l1, "l2": args.l2, "n": args.n,
                  "s": args.s, "t": args.t, "u": args.u}
    elif args.cmd == "concentration":
        value = randomized.concentration_bound(args.n, args.c, args.t)
        params = {"n": args.n, "c": args.c, "t": args.t}
    else:
        exact = randomized.expected_avoiding_count(args.m, args.u, args.k, args.a)
        try:
            value = float(exact)
        except OverflowError:
            value = math.inf
        params = {"m": args.m, "u": args.u, "k": args.k, "a": args.a}
    # an overflowed value is written as null, as mc acceptance writes its bound
    record = records.make_record(f"bound {args.cmd}", params,
                                 value=value if math.isfinite(value) else None)
    return record, f"{value!r}\n", None, EXIT_OK


def _embed_command(args, started: float):
    from .generators import embed_kneser_tensor, embed_rook_in_kneser

    if args.cmd == "rook-in-kneser":
        witness = embed_rook_in_kneser(args.n, args.k)
        params = {"n": args.n, "k": args.k}
    else:
        witness = embed_kneser_tensor(args.n, args.k, args.n1, args.k1)
        params = {"n": args.n, "k": args.k, "n1": args.n1, "k1": args.k1}
    record = records.make_record(f"embed {args.cmd}", params,
                                 source_vertices=witness.source.n,
                                 target_vertices=witness.target.n,
                                 mapping=list(witness.mapping), verified=True)
    text = (f"embedded {witness.source.n} vertices into "
            f"{witness.target.n}; adjacency preserved\n")
    return record, text, None, EXIT_OK


def _verify_command(args, started: float):
    deadline = Deadline(args.timeout_s)
    if args.cmd == "sabidussi":
        result = verify.sabidussi_suite(max_n=args.max_n, random_pairs=args.pairs,
                                        pair_max_n=args.pair_max_n, seed=args.seed,
                                        threads=args.threads, deadline=deadline)
    elif args.cmd == "bidirect":
        result = verify.bidirect_suite(max_n=args.max_n, deadline=deadline)
    elif args.cmd == "kneser-chi":
        result = verify.kneser_chi_suite(deadline=deadline)
    elif args.cmd == "tensor-bound":
        result = verify.tensor_upper_bound_suite(max_n=args.max_n, threads=args.threads,
                                                 deadline=deadline)
    else:
        result = verify.catalogue_suite(seed=args.seed, deadline=deadline)
    if not result.ok:
        code, status = EXIT_VIOLATED, "VIOLATED"
    elif result.unknown:
        code, status = EXIT_BUDGET, f"unknown ({result.unknown} rows over budget)"
    else:
        code, status = EXIT_OK, "ok"
    record = records.make_record(
        f"verify {result.name}",
        result.summary,
        runtime_ms=_runtime_ms(started),
        ok=code == EXIT_OK,
        rows=result.rows,
    )
    text = "".join([f"verify {result.name}: {status}\n"]
                   + [f"  {k}: {v}\n" for k, v in sorted(result.summary.items())])
    return record, text, result.rows, code


_HANDLERS = {"gen": _gen_command, "product": _product_command, "orient": _orient_command,
             "solve": _solve_command, "check": _check_command, "mc": _mc_command,
             "bound": _bound_command, "embed": _embed_command, "verify": _verify_command}


def _dispatch(args) -> int:
    if args.format == "csv" and (args.group in ("check", "bound", "embed")
                                 or (args.group, args.cmd) == ("orient", "enumerate")):
        print(f"dichroma: {args.group} {args.cmd} has no csv output", file=sys.stderr)
        return EXIT_USAGE
    record, text, rows, code = _HANDLERS[args.group](args, time.perf_counter())
    if record is not None and args.format == "json":
        text = records.record_json(record)
    elif record is not None and args.format == "csv":
        import csv
        import io

        buf = io.StringIO()
        writer = csv.DictWriter(buf, fieldnames=sorted({k for row in rows for k in row}))
        writer.writeheader()
        writer.writerows(rows)
        text = buf.getvalue()
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)
    return code


def run(argv) -> int:
    """Execute one command line; returns the process exit code."""
    group = argv[0] if argv and argv[0] in _GROUPS else None
    try:
        args = _build_parser(group).parse_args(argv)
    except SystemExit as exc:
        return EXIT_OK if exc.code in (0, None) else EXIT_USAGE
    try:
        return _dispatch(args)
    except (BudgetExceededError, CertificationError) as exc:
        print(f"dichroma: budget exceeded: {exc}", file=sys.stderr)
        return EXIT_BUDGET
    except (DichromaError, ValueError, OSError) as exc:
        print(f"dichroma: {exc}", file=sys.stderr)
        return EXIT_USAGE


def main() -> None:
    sys.exit(run(sys.argv[1:]))


if __name__ == "__main__":
    main()
