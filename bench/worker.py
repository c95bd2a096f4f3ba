"""One benchmark worker: a fresh process holding one closed-loop client.

Run by ``run.py`` as ``python3 bench/worker.py '<json options>'`` with
options ``root``, ``workload``, ``seed``, ``seconds``, ``trace``,
``setup_only``, ``spawn_ns`` and ``spans_path``.  The worker imports
``hardyweak.cli`` from ``<root>/src``, sends one untimed warm-up request,
and stops there if ``setup_only``.  Otherwise it calls ``run_cli`` in
process, one request at a time, until ``seconds`` have passed, and checks
every report after its timed call.  With ``trace`` every second request
is traced, and the spans give the per-layer numbers.
Its last stdout line is one JSON object with the raw measurements.

Set-up is the sum of three parts: process start-up (spawn to the first
line of this file), the import of ``hardyweak.cli`` and the warm-up call.
The standard modules the worker itself needs are imported in between and
counted in none of them.
"""
import time

START_NS = time.monotonic_ns()

import contextlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

import workloads  # noqa: E402

MAX_REPORTED_FAILURES = 5


class Client:
    """Closed loop: the next request goes out once the last one is checked.

    ``cli.run_cli`` is looked up at each call, so a traced ``run_cli`` is
    the root span of its request.  While ``tracer`` is set, its request id
    is set for the timed call only, so the output checks leave no spans.
    """

    def __init__(self, cli, checker, stream) -> None:
        self.cli = cli
        self.checker = checker
        self.stream = stream
        self.tracer = None
        self.failures: list[str] = []
        self.attempted = 0

    def _call(self, request) -> tuple[int, int, str, str]:
        out, err = io.StringIO(), io.StringIO()
        if self.tracer is not None:
            self.tracer.request = self.attempted
        start = time.perf_counter_ns()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = self.cli.run_cli(list(request.argv))
        elapsed = time.perf_counter_ns() - start
        if self.tracer is not None:
            self.tracer.request = None
        return code, elapsed, out.getvalue(), err.getvalue()

    def one(self) -> tuple[int, int]:
        """Send, time and check one request; returns (wall ns, failed)."""
        request = next(self.stream)
        self.attempted += 1
        code, elapsed, text, err = self._call(request)
        problem = None
        if code != 0:
            problem = f"exit {code}: {err.strip()}"
        else:
            try:
                self.checker.check(request, text)
            except Exception as exc:  # a report that fails to parse fails its check
                problem = f"{type(exc).__name__}: {exc}"
        if problem is not None and len(self.failures) < MAX_REPORTED_FAILURES:
            self.failures.append(f"{' '.join(request.argv)} -> {problem}")
        return elapsed, int(problem is not None)

    def loop(self, seconds: float, tracer=None) -> tuple[list[int], list[int], int]:
        """Run for ``seconds``; returns (untraced ns, traced ns, failures).

        With a tracer every second request is traced, so both kinds see
        the same warm-up and drift; the wrappers are in place only for
        the traced ones.
        """
        plain: list[int] = []
        traced: list[int] = []
        failed = 0
        deadline = time.perf_counter() + seconds
        while time.perf_counter() < deadline:
            tracing = tracer is not None and len(plain) > len(traced)
            if tracing:
                tracer.install()
                self.tracer = tracer
            elapsed, bad = self.one()
            if tracing:
                self.tracer = None
                tracer.uninstall()
            (traced if tracing else plain).append(elapsed)
            failed += bad
        return plain, traced, failed


def main() -> None:
    options = json.loads(sys.argv[1])
    root = Path(options["root"])
    sys.path.insert(0, str(root / "src"))

    import_start = time.perf_counter_ns()
    import hardyweak.cli
    import_ns = time.perf_counter_ns() - import_start

    import hardyweak
    import numpy
    from checks import Checker
    from tracing import Tracer

    source = Path(hardyweak.__file__).resolve()
    if not source.is_relative_to((root / "src").resolve()):
        raise SystemExit(f"imported hardyweak from {source}, not from {root / 'src'}")

    client = Client(
        hardyweak.cli,
        Checker(),
        workloads.requests(options["workload"], options["seed"]),
    )
    warmup_ns, warmup_failed = client.one()
    result = {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "start_ns": START_NS - options["spawn_ns"],
        "import_ns": import_ns,
        "warmup_ns": warmup_ns,
        "failed": warmup_failed,
    }
    if not options["setup_only"]:
        tracer = Tracer(hardyweak) if options["trace"] else None
        plain, traced, failed = client.loop(options["seconds"], tracer)
        result["latencies_ns"] = plain
        result["failed"] += failed
        if tracer is not None:
            result["traced_latencies_ns"] = traced
            result["layers"] = tracer.metrics(len(traced))
            result["unaccounted_ns"] = sum(traced) - sum(
                tracer.self_time_by_request().values()
            )
            tracer.dump(Path(options["spans_path"]))
    result["attempted"] = client.attempted
    result["failures"] = client.failures
    result["maxrss_kb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    print(json.dumps(result))


if __name__ == "__main__":
    main()
