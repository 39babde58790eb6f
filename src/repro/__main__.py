"""Command-line interface: compile a benchmark and print the metrics.

Examples::

    python -m repro --benchmark NNN_Heisenberg --qubits 10 \
        --device montreal --gateset CNOT
    python -m repro --benchmark QAOA-REG-3 --qubits 12 --device sycamore \
        --gateset SYC --compare
    python -m repro compile --compiler tket --benchmark NNN_Ising \
        --qubits 8 --device aspen
    python -m repro compile --list-compilers
    python -m repro bind --benchmark QAOA-REG-3 --qubits 8 \
        --bind gamma=0.4,beta=1.1 --bind gamma=0.7,beta=0.2
    python -m repro sweep --benchmark NNN_Ising --device aspen \
        --gateset CNOT --sizes 6,8,10 --jobs 4 --store results/store
    python -m repro batch --requests requests.json --jobs 4 \
        --cache results/cache --json
    python -m repro serve --port 8000 --jobs 2 --cache results/cache
    python -m repro lint --json --select RPR002,RPR004
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
from pathlib import Path

from repro.analysis.harness import (
    SweepConfig,
    build_step,
    build_symbolic_step,
    format_cache_stats,
    format_pass_timings,
    format_rows,
)
from repro.core.registry import (
    compiler_names,
    compiler_specs,
    get_compiler,
    resolve_spec,
)
from repro.devices.library import target_device

BENCHMARKS = ["NNN_Heisenberg", "NNN_XY", "NNN_Ising", "QAOA-REG-3",
              "QAOA-WR-3", "QAOA-ER"]
DEVICES = ["montreal", "sycamore", "aspen", "manhattan", "all-to-all"]
GATESETS = ["CNOT", "CZ", "SYC", "ISWAP"]
SWEEP_COMPILERS = list(compiler_names())
COMPILER_CHOICES = sorted(
    {name for spec in compiler_specs() for name in (spec.name, *spec.aliases)}
)
SWEEP_METRICS = ["n_swaps", "n_dressed", "n_two_qubit_gates",
                 "two_qubit_depth", "total_depth", "seconds"]


# ----------------------------------------------------------------------
# The parser tree
# ----------------------------------------------------------------------
def _problem(parser: argparse.ArgumentParser) -> None:
    """The benchmark/device/gateset/seed options every compile shares."""
    parser.add_argument("--benchmark", default="NNN_Heisenberg",
                        choices=BENCHMARKS, help="benchmark family")
    parser.add_argument("--device", default="montreal", choices=DEVICES,
                        help="target device")
    parser.add_argument("--gateset", default="CNOT", choices=GATESETS,
                        help="hardware two-qubit basis")
    parser.add_argument("--seed", type=int, default=0)


def _sized(parser: argparse.ArgumentParser, compiler: bool = True) -> None:
    """The single-size options: ``--qubits``, plus ``--compiler``."""
    if compiler:
        parser.add_argument("--compiler", default="2qan",
                            choices=COMPILER_CHOICES,
                            help="registry name (or alias) of the compiler")
    parser.add_argument("--qubits", type=int, default=10,
                        help="problem size")


def make_parser() -> argparse.ArgumentParser:
    """The whole CLI: the root (2QAN) compile plus one subcommand each."""
    parser = argparse.ArgumentParser(
        prog="repro",
        description="2QAN reproduction: compile 2-local Hamiltonian "
                    "simulation benchmarks onto NISQ devices",
    )
    _problem(parser)
    _sized(parser, compiler=False)
    parser.add_argument("--mapping-trials", type=int, default=5,
                        help="Tabu restarts (paper uses 5)")
    parser.add_argument("--compare", action="store_true",
                        help="also run the baseline compilers")
    parser.set_defaults(func=root_main)
    commands = parser.add_subparsers(
        title="subcommands",
        description="'repro bind --help' (and so on) lists a "
                    "subcommand's options; without a subcommand, repro "
                    "compiles with 2QAN (plus the baselines with "
                    "--compare)",
    )

    compile_ = commands.add_parser(
        "compile", help="compile one benchmark with any registered compiler",
        description="Compile one benchmark instance with any compiler "
                    "from the registry and print metrics + pass timings",
    )
    _sized(compile_)
    _problem(compile_)
    compile_.add_argument("--bind", default=None, metavar="NAME=VAL[,...]",
                          help="compile the benchmark's symbolic form and "
                               "bind these angles (e.g. gamma=0.4,beta=1.1); "
                               "bit-identical to compiling the concrete "
                               "circuit")
    compile_.add_argument("--json", action="store_true",
                          help="emit metrics/timings as JSON")
    compile_.add_argument("--list-compilers", action="store_true",
                          help="list registered compilers and exit")
    compile_.set_defaults(func=compile_main)

    bind = commands.add_parser(
        "bind", help="compile a benchmark's structure once and bind angle "
                     "sets at request speed",
        description="Compile a benchmark's structure once, then bind one "
                    "or more angle sets at request speed; every bound "
                    "circuit is bit-identical to a from-scratch compile "
                    "of the concrete benchmark",
    )
    _sized(bind)
    _problem(bind)
    bind.add_argument("--bind", action="append", required=True,
                      metavar="NAME=VAL[,...]",
                      help="one angle set, e.g. gamma=0.4,beta=1.1; "
                           "repeat the flag for several sets")
    bind.add_argument("--json", action="store_true",
                      help="emit per-binding metrics as JSON")
    bind.set_defaults(func=bind_main, benchmark="QAOA-REG-3")

    sweep = commands.add_parser(
        "sweep", help="run a parallel, resumable (sizes x instances x "
                      "compilers) sweep",
        description="Run a (sizes x instances x compilers) sweep on the "
                    "parallel engine with an optional persistent store",
    )
    _problem(sweep)
    sweep.add_argument("--sizes", default="6,10,14",
                       help="comma-separated problem sizes")
    sweep.add_argument("--compilers", default="2qan,tket,qiskit,nomap",
                       help=f"comma-separated subset of {SWEEP_COMPILERS}")
    sweep.add_argument("--instances", type=int, default=1,
                       help="random instances per size (QAOA)")
    sweep.add_argument("--jobs", type=int, default=None,
                       help="worker processes (default: all cores)")
    sweep.add_argument("--store", default=None, metavar="DIR",
                       help="persist/resume rows under this directory")
    sweep.add_argument("--cache", default=None, metavar="DIR",
                       help="share stage artifacts across tasks via a "
                            "content-addressed cache in this directory")
    sweep.add_argument("--json", action="store_true",
                       help="emit raw rows as JSON instead of tables")
    sweep.add_argument("--metrics",
                       default="n_swaps,n_two_qubit_gates,two_qubit_depth",
                       help=f"comma-separated subset of {SWEEP_METRICS} "
                            "for the text tables")
    sweep.add_argument("--pass-timings", action="store_true",
                       help="also print mean per-pass seconds per compiler")
    sweep.set_defaults(func=sweep_main)

    batch = commands.add_parser(
        "batch", help="serve a JSON file of compile requests through the "
                      "content-addressed cache",
        description="Serve a JSON file of compile requests: deduplicate, "
                    "share one content-addressed artifact cache across "
                    "the batch, fan independent requests out over "
                    "processes",
        epilog="the requests file holds a JSON list of objects with any "
               "of: compiler, benchmark, n_qubits, device, gateset, "
               "seed, qaoa_degree, parameters (missing fields take the "
               "'repro compile' defaults; parameters is an angle object "
               "such as {\"gamma\": 0.4, \"beta\": 1.1} -- requests "
               "differing only in angle values share one structural "
               "compilation)",
    )
    batch.add_argument("--requests", required=True, metavar="FILE",
                       help="JSON file with the request list")
    batch.add_argument("--jobs", type=int, default=1,
                       help="worker processes for unique requests")
    batch.add_argument("--cache", default=None, metavar="DIR",
                       help="persist stage artifacts in this directory "
                            "(shared across runs and processes)")
    batch.add_argument("--json", action="store_true",
                       help="emit responses as JSON (deterministic: "
                            "identical for cold and warm caches)")
    batch.set_defaults(func=batch_main)

    serve = commands.add_parser(
        "serve", help="run the HTTP compile server",
        description="Run the compile server: an HTTP front end with a "
                    "bounded priority job queue, in-flight request "
                    "coalescing, per-tenant cache salting, /metrics, "
                    "and graceful drain on shutdown",
        epilog="routes: POST /compile (one request), POST /batch (a "
               "request list; responses match 'repro batch --json'), "
               "GET /metrics, GET /healthz, POST /shutdown; requests "
               "may carry 'tenant', 'priority' and 'timeout_s' fields",
    )
    serve.add_argument("--host", default="127.0.0.1",
                       help="bind address")
    serve.add_argument("--port", type=int, default=8000,
                       help="TCP port (0 picks an ephemeral port; the "
                            "bound port is announced on stderr)")
    serve.add_argument("--jobs", type=int, default=2,
                       help="worker threads compiling queued requests")
    serve.add_argument("--queue-depth", type=int, default=64,
                       help="pending-job bound before 429 backpressure")
    serve.add_argument("--cache", default=None, metavar="DIR",
                       help="persist stage artifacts under this "
                            "directory, salted per tenant and source "
                            "digest")
    serve.add_argument("--memory-limit", type=int, default=1024,
                       help="in-memory artifact entries per tenant")
    serve.add_argument("--timeout", type=float, default=None,
                       metavar="SECONDS",
                       help="default per-request timeout (requests may "
                            "override with 'timeout_s')")
    serve.add_argument("--workers", choices=("thread", "process"),
                       default="thread",
                       help="where compiles execute: 'thread' (default) "
                            "or 'process' (a supervised process pool: "
                            "crash isolation, bounded retries, poison-"
                            "job quarantine)")
    serve.add_argument("--max-retries", type=int, default=2,
                       help="re-runs of a worker-crashing job before it "
                            "is quarantined (process mode)")
    serve.add_argument("--journal", nargs="?", const="auto", default=None,
                       metavar="FILE",
                       help="write-ahead log of accepted jobs, replayed "
                            "on restart; without FILE it lives at "
                            "CACHE/journal.jsonl (requires --cache)")
    serve.add_argument("--idle-timeout", type=float, default=60.0,
                       metavar="SECONDS",
                       help="how long an idle keep-alive connection is "
                            "held open")
    serve.set_defaults(func=serve_main)

    lint = commands.add_parser(
        "lint", help="run the static contract checkers",
        description="Run the domain contract checkers (pass "
                    "reads/writes, fingerprint coverage, metrics "
                    "schema, compile-path determinism, async hygiene) "
                    "over src/repro; exits 1 when any finding remains",
        epilog="findings print as 'path:line: CHECK [severity] "
               "message'; --json emits the stable schema (version 1) "
               "for tooling",
    )
    lint.add_argument("--root", default=None, metavar="DIR",
                      help="repo root to scan (default: autodetected "
                           "from the installed repro package)")
    lint.add_argument("--json", action="store_true",
                      help="emit findings as JSON (stable schema)")
    lint.add_argument("--select", default=None, metavar="ID[,ID...]",
                      help="run only these check ids (e.g. "
                           "RPR002,RPR004)")
    lint.add_argument("--ignore", default=None, metavar="ID[,ID...]",
                      help="skip these check ids")
    lint.add_argument("--diff-base", default=None, metavar="REF",
                      help="report only findings in files changed "
                           "since this git ref (checkers still see "
                           "the whole tree, so cross-file contracts "
                           "stay sound)")
    lint.add_argument("--list-checks", action="store_true",
                      help="list registered checks and exit")
    lint.set_defaults(func=lint_main)
    return parser


# ----------------------------------------------------------------------
# Shared helpers
# ----------------------------------------------------------------------
def _csv(text: str) -> list[str]:
    return [item for item in (p.strip() for p in text.split(",")) if item]


def _parse_binding(text: str) -> dict[str, float]:
    """Parse ``gamma=0.4,beta=1.1`` into an angle binding (in order)."""
    binding: dict[str, float] = {}
    for part in _csv(text):
        name, sep, value = part.partition("=")
        name = name.strip()
        if not sep or not name:
            raise ValueError(
                f"bad binding {part!r}; expected name=value"
            )
        try:
            binding[name] = float(value)
        except ValueError:
            raise ValueError(
                f"bad binding value in {part!r}; expected a number"
            ) from None
        if not math.isfinite(binding[name]):
            raise ValueError(
                f"bad binding value in {part!r}; {name} must be finite"
            )
    if not binding:
        raise ValueError("empty binding; expected name=value[,name=value]")
    return binding


def _format_binding(binding: dict[str, float]) -> str:
    return ", ".join(f"{name}={value:g}" for name, value in binding.items())


#: (text label, metric attribute) of the one-line metrics summary
_TEXT_METRICS = (("swaps", "n_swaps"), ("dressed", "n_dressed"),
                 ("2q-gates", "n_two_qubit_gates"),
                 ("2q-depth", "two_qubit_depth"), ("depth", "total_depth"))


def _metrics_text(metrics, skip: tuple[str, ...] = ()) -> str:
    """``swaps=.. dressed=.. 2q-gates=.. 2q-depth=.. depth=..``.

    ``metrics`` is anything carrying the metric attributes (circuit
    metrics or a batch response); labels in ``skip`` are left out.
    """
    return " ".join(f"{label}={getattr(metrics, attr)}"
                    for label, attr in _TEXT_METRICS if label not in skip)


def _target(args):
    """The (device, gateset label) ``args.compiler`` compiles for."""
    spec = resolve_spec(args.compiler)
    device = target_device(args.device, args.qubits, spec.requires_device)
    return device, (args.gateset if spec.uses_gateset else None)


def _header(args, device, gateset: str | None) -> str:
    basis = (f"{gateset} basis" if gateset is not None
             else "idealised CNOT cost model")
    return f"{args.benchmark} n={args.qubits} on {device.name} ({basis})"


def _request_fields(args, device, gateset: str | None) -> dict:
    return {
        "compiler": args.compiler,
        "benchmark": args.benchmark,
        "n_qubits": args.qubits,
        "device": device.name,
        "gateset": gateset,
        "seed": args.seed,
    }


# ----------------------------------------------------------------------
# repro (no subcommand): 2QAN, optionally against the baselines
# ----------------------------------------------------------------------
def root_main(args) -> int:
    step = build_step(args.benchmark, args.qubits, args.seed)
    device = target_device(args.device, args.qubits)
    compiler = get_compiler("2qan", device=device, gateset=args.gateset,
                            seed=args.seed,
                            mapping_trials=args.mapping_trials)
    result = compiler.compile(step)
    print(_header(args, device, args.gateset))
    print(f"  2QAN: {_metrics_text(result.metrics)}")
    if args.compare:
        for label, name in (("NoMap", "nomap"), ("tket-like", "tket"),
                            ("qiskit-like", "qiskit")):
            baseline = get_compiler(name, device=device,
                                    gateset=args.gateset, seed=args.seed)
            r = baseline.compile(step)
            print(f"  {label}: "
                  f"{_metrics_text(r.metrics, skip=('dressed', 'depth'))}")
    return 0


# ----------------------------------------------------------------------
# repro compile
# ----------------------------------------------------------------------
def _print_compiler_list() -> None:
    print("registered compilers:")
    for spec in compiler_specs():
        alias = (f" (aliases: {', '.join(spec.aliases)})"
                 if spec.aliases else "")
        print(f"  {spec.name:14s} {spec.summary}{alias}")


def compile_main(args) -> int:
    if args.list_compilers:
        _print_compiler_list()
        return 0
    device, gateset = _target(args)
    binding = None
    if args.bind is not None:
        try:
            binding = _parse_binding(args.bind)
        except ValueError as exc:
            print(f"error: bad --bind: {exc}", file=sys.stderr)
            return 1
        step = build_symbolic_step(args.benchmark, args.qubits, args.seed)
    else:
        step = build_step(args.benchmark, args.qubits, args.seed)
    compiler = get_compiler(args.compiler, device=device,
                            gateset=args.gateset, seed=args.seed)
    from repro.synthesis.templates import DEFAULT_TEMPLATES

    tpl_hits_before = DEFAULT_TEMPLATES.hits
    tpl_misses_before = DEFAULT_TEMPLATES.misses
    # a ValueError here (e.g. ic_qaoa on a benchmark without mutually
    # commuting layers, or a --bind that misses a parameter the
    # benchmark carries) is reported by main()
    result = compiler.compile(step, binding=binding)
    cache_stats = {
        "decompose_hits": compiler.cache.hits,
        "decompose_misses": compiler.cache.misses,
        "template_hits": DEFAULT_TEMPLATES.hits - tpl_hits_before,
        "template_misses": DEFAULT_TEMPLATES.misses - tpl_misses_before,
    }
    if args.json:
        payload = {
            **_request_fields(args, device, gateset),
            **({"parameters": binding} if binding else {}),
            **result.metric_fields(),
            "timings": result.timings,
            "cache_stats": cache_stats,
        }
        print(json.dumps(payload, indent=2))
        return 0
    print(_header(args, device, gateset))
    if binding:
        print(f"  bound: {_format_binding(binding)}")
    print(f"  {args.compiler}: {_metrics_text(result.metrics)}")
    if not math.isnan(result.qap_cost):
        print(f"  qap-cost={result.qap_cost:.0f}")
    print("  pass timings: " + ", ".join(
        f"{name}={seconds * 1000:.0f}ms"
        for name, seconds in result.timings.items()))
    return 0


# ----------------------------------------------------------------------
# repro bind
# ----------------------------------------------------------------------
def bind_main(args) -> int:
    import time

    from repro.core.bind import compile_structural

    try:
        bindings = [_parse_binding(text) for text in args.bind]
    except ValueError as exc:
        print(f"error: bad --bind: {exc}", file=sys.stderr)
        return 1
    device, gateset = _target(args)
    step = build_symbolic_step(args.benchmark, args.qubits, args.seed)
    compiler = get_compiler(args.compiler, device=device,
                            gateset=args.gateset, seed=args.seed)
    start = time.perf_counter()
    structural = compile_structural(compiler, step)
    structural_seconds = time.perf_counter() - start

    payloads = []
    lines = []
    for binding in bindings:
        start = time.perf_counter()
        result = structural.bind(binding)
        seconds = time.perf_counter() - start
        lines.append(f"  bind {_format_binding(binding)}: "
                     f"{_metrics_text(result.metrics)} "
                     f"({seconds * 1000:.0f}ms)")
        payloads.append({
            "parameters": binding,
            **result.metric_fields(),
            "seconds": seconds,
        })
    if args.json:
        print(json.dumps({
            **_request_fields(args, device, gateset),
            "structural_passes": list(structural.prefix_names),
            "structural_seconds": structural_seconds,
            "bindings": payloads,
        }, indent=2))
        return 0
    print(_header(args, device, gateset))
    print(f"  structural: {'+'.join(structural.prefix_names)} "
          f"({structural_seconds * 1000:.0f}ms, parameters: "
          f"{', '.join(sorted(structural.parameters)) or 'none'})")
    for line in lines:
        print(line)
    return 0


# ----------------------------------------------------------------------
# repro sweep
# ----------------------------------------------------------------------
def sweep_main(args) -> int:
    from repro.analysis.engine import default_jobs, open_store, run_engine
    from repro.analysis.store import row_to_dict, source_digest

    try:
        sizes = tuple(dict.fromkeys(int(s) for s in _csv(args.sizes)))
    except ValueError:
        print(f"error: bad --sizes {args.sizes!r}", file=sys.stderr)
        return 1
    metrics = _csv(args.metrics)
    bad_metrics = [m for m in metrics if m not in SWEEP_METRICS]
    if bad_metrics:
        print(f"error: bad --metrics (unknown: {bad_metrics}; choose "
              f"from {SWEEP_METRICS})", file=sys.stderr)
        return 1
    if args.instances < 1:
        print("error: --instances must be >= 1", file=sys.stderr)
        return 1
    if args.jobs is not None and args.jobs < 1:
        print("error: --jobs must be >= 1", file=sys.stderr)
        return 1
    if not sizes:
        print("error: --sizes must name at least one size", file=sys.stderr)
        return 1
    requested = _csv(args.compilers)
    unknown = [c for c in requested if c not in COMPILER_CHOICES]
    if not requested or unknown:
        print(f"error: bad --compilers (unknown: {unknown}; "
              f"choose from {COMPILER_CHOICES})", file=sys.stderr)
        return 1
    # canonicalize aliases so 'tket,order' is one compiler, not two, and
    # store keys stay stable across spellings
    compilers = tuple(dict.fromkeys(
        resolve_spec(c).name for c in requested
    ))
    # all-to-all is sized to the largest problem; for stored sweeps the
    # device (including its size) is part of the store key, so growing
    # an all-to-all sweep's size grid starts a fresh store file
    device = target_device(
        args.device, max(sizes),
        requires_device=any(resolve_spec(c).requires_device
                            for c in compilers),
    )

    config = SweepConfig(
        benchmark=args.benchmark,
        device=device,
        gateset=args.gateset,
        sizes=sizes,
        compilers=compilers,
        instances=args.instances,
        seed=args.seed,
    )
    jobs = args.jobs if args.jobs is not None else default_jobs()
    # salt the store with a source digest so rows computed by an older
    # version of the compiler are never replayed as fresh results
    store = (open_store(args.store, config, salt=source_digest())
             if args.store else None)
    # the engine salts the cache directory with a source digest itself:
    # artifacts never outlive the code that produced them
    rows = run_engine(config, jobs=jobs, store=store,
                      artifact_cache=args.cache or None)

    if args.json:
        print(json.dumps([row_to_dict(row) for row in rows], indent=2))
        return 0
    print(f"{args.benchmark} on {device.name} ({args.gateset} basis), "
          f"{len(rows)} rows, jobs={jobs}"
          + (f", store={store.path}" if store else "")
          + (f", cache={args.cache}" if args.cache else ""))
    for metric in metrics:
        print(f"\n[{metric}]")
        print(format_rows(rows, metric, compilers))
    if args.pass_timings:
        print("\n[pass seconds]")
        print(format_pass_timings(rows, compilers))
        print("\n[cache counters]")
        print(format_cache_stats(rows, compilers))
    return 0


# ----------------------------------------------------------------------
# repro batch
# ----------------------------------------------------------------------
def batch_main(args) -> int:
    from repro.service.batch import BatchCompiler, load_requests

    if args.jobs < 1:
        print("error: --jobs must be >= 1", file=sys.stderr)
        return 1
    try:
        requests = load_requests(args.requests)
    except (OSError, ValueError, TypeError) as exc:
        print(f"error: bad --requests file: {exc}", file=sys.stderr)
        return 1
    if not requests:
        print("error: requests file holds no requests", file=sys.stderr)
        return 1
    def label(request) -> str:
        return (f"{request.compiler} {request.benchmark} "
                f"n={request.n_qubits} seed={request.seed}")

    # BatchCompiler salts the directory with a source digest itself
    service = BatchCompiler(jobs=args.jobs, cache_dir=args.cache or None)
    responses, summary = service.run(requests)
    # the summary carries wall times and cache counters, which differ
    # between runs; keep stdout deterministic by reporting it on stderr.
    # per-request failures are isolated into error-carrying responses;
    # report them on stderr too and signal with the exit code.
    print(summary.line(), file=sys.stderr)
    for response in responses:
        if response.failed and not response.deduplicated:
            print(f"error: {label(response.request)}: {response.error}",
                  file=sys.stderr)
    exit_code = 1 if summary.n_failed else 0
    if args.json:
        print(json.dumps([r.to_dict() for r in responses], indent=2))
        return exit_code
    for response in responses:
        note = " (deduplicated)" if response.deduplicated else ""
        if response.failed:
            print(f"{label(response.request)}: "
                  f"FAILED ({response.error}){note}")
            continue
        print(f"{label(response.request)}: "
              f"{_metrics_text(response, skip=('dressed',))}{note}")
    return exit_code


# ----------------------------------------------------------------------
# repro lint
# ----------------------------------------------------------------------
def _changed_paths(repo_root: Path, base: str) -> set[str] | None:
    """Repo-relative paths changed since ``base``, or None on error."""
    import subprocess

    proc = subprocess.run(
        ["git", "diff", "--name-only", base, "--"],
        cwd=repo_root, capture_output=True, text=True,
    )
    if proc.returncode != 0:
        print(f"error: git diff --name-only {base} failed: "
              f"{proc.stderr.strip()}", file=sys.stderr)
        return None
    return {line.strip() for line in proc.stdout.splitlines()
            if line.strip()}


def lint_main(args) -> int:
    from repro.lint import Project, all_checkers, run_lint

    if args.list_checks:
        for check_id, cls in all_checkers().items():
            print(f"{check_id}  {cls.name}: {cls.description}")
        return 0
    if args.root is not None:
        repo_root = Path(args.root)
    else:
        import repro

        # src/repro/__init__.py -> src/repro -> src -> repo root
        repo_root = Path(repro.__file__).resolve().parents[2]
    if not (repo_root / "src" / "repro").is_dir():
        print(f"error: {repo_root} has no src/repro tree (pass --root)",
              file=sys.stderr)
        return 2
    project = Project.from_root(repo_root)
    try:
        findings = run_lint(
            project,
            select=_csv(args.select) if args.select else None,
            ignore=_csv(args.ignore) if args.ignore else None,
        )
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    if args.diff_base is not None:
        changed = _changed_paths(repo_root, args.diff_base)
        if changed is None:
            return 2
        findings = [f for f in findings if f.path in changed]
    if args.json:
        checks = [
            {"id": check_id, "name": cls.name,
             "description": cls.description}
            for check_id, cls in all_checkers().items()
        ]
        print(json.dumps({
            "version": 1,
            "checks": checks,
            "findings": [f.to_dict() for f in findings],
            "summary": {
                "files": len(project.files),
                "errors": sum(f.severity == "error" for f in findings),
                "warnings": sum(f.severity == "warning"
                                for f in findings),
            },
        }, indent=2))
    else:
        for finding in findings:
            print(finding.render())
        errors = sum(f.severity == "error" for f in findings)
        warnings = len(findings) - errors
        if findings:
            print(f"{len(findings)} finding(s): {errors} error(s), "
                  f"{warnings} warning(s)", file=sys.stderr)
        else:
            print(f"clean: {len(project.files)} files, 0 findings",
                  file=sys.stderr)
    return 1 if findings else 0


# ----------------------------------------------------------------------
# repro serve
# ----------------------------------------------------------------------
def serve_main(args) -> int:
    from repro.service.server import ServiceConfig, serve

    if args.jobs < 1:
        print("error: --jobs must be >= 1", file=sys.stderr)
        return 1
    if args.queue_depth < 1:
        print("error: --queue-depth must be >= 1", file=sys.stderr)
        return 1
    if args.port < 0 or args.port > 65535:
        print("error: --port must be in 0..65535", file=sys.stderr)
        return 1
    if args.timeout is not None and args.timeout <= 0:
        print("error: --timeout must be positive", file=sys.stderr)
        return 1
    if args.max_retries < 0:
        print("error: --max-retries must be >= 0", file=sys.stderr)
        return 1
    if args.idle_timeout <= 0:
        print("error: --idle-timeout must be positive", file=sys.stderr)
        return 1
    journal_path = args.journal
    if journal_path == "auto":
        if not args.cache:
            print("error: --journal without a FILE requires --cache",
                  file=sys.stderr)
            return 1
        journal_path = str(Path(args.cache) / "journal.jsonl")
    config = ServiceConfig(
        jobs=args.jobs,
        queue_depth=args.queue_depth,
        cache_dir=args.cache or None,
        memory_limit=args.memory_limit,
        default_timeout_s=args.timeout,
        worker_mode=args.workers,
        max_retries=args.max_retries,
        journal_path=journal_path,
        idle_timeout_s=args.idle_timeout,
    )
    return serve(config, host=args.host, port=args.port)


def main(argv: list[str] | None = None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    parser = make_parser()
    args = parser.parse_args(argv)
    if args.func is not root_main and argv[0].startswith("-"):
        # the subcommand's own defaults would silently replace them
        parser.error("options before a subcommand belong to the root "
                     "command; pass them after the subcommand")
    try:
        return args.func(args)
    except ValueError as exc:
        # a bad size for the target, an impossible benchmark instance, a
        # benchmark the compiler cannot handle, a missing angle, ...
        print(f"error: {exc}", file=sys.stderr)
        return 1


def run_script() -> int:
    """:func:`main` for a process whose stdout may be a closed pipe.

    ``repro compile --json | head -5`` closes the pipe early.  Following
    the Python docs' SIGPIPE recipe, the process then exits with status
    1 and no traceback; stdout is pointed at devnull first, so the
    interpreter's own flush at exit cannot raise a second time.
    """
    try:
        status = main()
        sys.stdout.flush()
    except BrokenPipeError:
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 1
    return status


if __name__ == "__main__":
    raise SystemExit(run_script())
