"""The three benchmark workloads and their seeded inputs.

Every workload is a closed loop with one client: it issues op ``k`` only
after op ``k - 1`` has answered.  Inputs are generated from the workload seed
alone; the program under test receives only the generated source text.

A workload exposes the same small interface to :mod:`run`:

* ``setup_once()``   — one cold start, timed by the caller (``setup_s``);
* ``prepare()``      — build the timed inputs and run the warm-up ops, which
  use inputs disjoint from the timed ones;
* ``begin_pass(p)``  — reset state and build the inputs of pass ``p`` (a
  pass is ``pass_size`` ops; pass ``p`` of a seed is the same in every run,
  and different passes take different inputs);
* ``op(k)``          — run op ``k`` of the current pass; returns an
  :class:`OpResult` whose ``seconds`` cover only the timed region;
* ``checkpoint()``   — correctness checks of the state the ops left, run
  after the base pass and at the end; returns the number of failures;
* ``close()``        — stop everything the workload started.

Correctness checks run outside the timed region.
"""

from __future__ import annotations

import gc
import os
import random
import re
import resource
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"

#: Symbol values bound when executing programs with symbolic strides.
SYMBOL_ENV = {"NX": 4, "NY": 3, "NZ": 3}
#: Workload seed of the set-up input, whatever the run's seed: ``setup_s``
#: measures a cold start, not the cost of one seed's inputs.
SETUP_SEED = 0


@dataclass
class OpResult:
    """One op: its timed seconds, correctness, and the counts it carries."""

    seconds: float
    ok: bool
    degraded: bool = False
    #: Dependence-verdict counts (``GraphPerf.verdicts``) where the op has them.
    verdicts: dict[str, int] = field(default_factory=dict)
    pairs: int = 0
    cache_hits: int = 0
    cache_misses: int = 0
    edges: int = 0
    assignments: int = 0
    vectorized: int = 0
    #: Per-call round trips for ops made of several requests (serve-edit).
    calls: dict[str, float] = field(default_factory=dict)


def derived_seed(seed: int, stream: str, index: int) -> int:
    """A generator seed for item ``index`` of a named input stream.

    ``random.Random`` seeded with a string hashes it with SHA-512, so the
    result does not depend on ``PYTHONHASHSEED``.
    """
    return random.Random(f"{stream}:{seed}:{index}").randrange(2**31)


def subprocess_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC) + (
        os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else ""
    )
    return env


def cold_start(source: str) -> None:
    """A fresh interpreter imports the pipeline and compiles ``source``."""
    code = (
        "import sys\n"
        "from repro.driver import compile_fortran\n"
        "compile_fortran(sys.stdin.read())\n"
    )
    # Captured output ends at the child's exit; with inherited streams,
    # ``run`` would poll for the exit in steps of up to 50 ms.
    subprocess.run(
        [sys.executable, "-c", code],
        input=source,
        text=True,
        capture_output=True,
        env=subprocess_env(),
        check=True,
        timeout=60,
    )


# -- in-process compile workloads ---------------------------------------------


class CompileWorkload:
    """Ops are in-process ``compile_fortran`` calls on generated files."""

    name = ""
    pass_size = 0
    warmup_ops = 8
    #: Run ``repro.clear_all()`` before every op (a fresh CLI process per
    #: file) instead of once per pass (one process over a code base).
    clear_per_op = False

    def __init__(self, seed: int):
        self.seed = seed
        self.sources: list[str] = []

    def source(self, stream: str, index: int) -> str:
        raise NotImplementedError

    def setup_once(self) -> None:
        cold_start(type(self)(SETUP_SEED).source("setup", 0))

    def prepare(self) -> None:
        import repro
        from repro.driver import compile_fortran

        self._clear_all = repro.clear_all
        self._compile = compile_fortran
        for k in range(self.warmup_ops):
            self._compile(self.source("warmup", k))

    def begin_pass(self, p: int) -> None:
        first = p * self.pass_size
        self.sources = [
            self.source("timed", first + k) for k in range(self.pass_size)
        ]
        self._clear_all()
        gc.collect()

    def op(self, k: int) -> OpResult:
        if self.clear_per_op:
            self._clear_all()
        source = self.sources[k]
        started = time.perf_counter()
        report = self._compile(source)
        seconds = time.perf_counter() - started
        return compile_result(report, seconds)

    def checkpoint(self) -> int:
        return 0

    def base_checks(self) -> list[OpResult]:
        return []

    def health_counters(self) -> dict:
        return {}

    def peak_rss_mb(self) -> float:
        """Peak resident set of this process (``ru_maxrss`` is KiB)."""
        return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    def close(self) -> None:
        pass


def compile_result(report, seconds: float) -> OpResult:
    """The counts a :class:`~repro.driver.CompilationReport` carries, checked
    by :func:`executes_identically`."""
    from repro.ir import Assignment

    perf = report.perf.graph
    assignments = sum(
        1
        for stmt, _loops in report.program.walk_statements()
        if isinstance(stmt, Assignment)
    )
    return OpResult(
        seconds=seconds,
        ok=executes_identically(report),
        degraded=report.degraded,
        verdicts=dict(perf.verdicts) if perf else {},
        pairs=perf.pairs if perf else 0,
        cache_hits=perf.cache_hits if perf else 0,
        cache_misses=perf.cache_misses if perf else 0,
        edges=len(report.graph.edges),
        assignments=assignments,
        vectorized=len(report.vectorized_statements),
    )


def executes_identically(report) -> bool:
    """The serial interpreter and the vectorized schedule leave equal memory."""
    from repro.ir.interp import InterpreterError, run_program
    from repro.vectorizer.execute import run_schedule

    try:
        serial = run_program(report.program, SYMBOL_ENV).snapshot()
        vector = run_schedule(report.plan, SYMBOL_ENV).snapshot()
    except InterpreterError:
        return False
    return serial == vector


def corpus_source(
    seed: int, stream: str, index: int, lines: int, styles: int
) -> str:
    """A generated program planting ``styles`` consecutive generator styles.

    File ``index`` takes the window of styles that starts at style ``index
    mod 7``, so every seven files cover all seven styles (hand, runtime,
    induction, equivalence, common, conditional, call), and pads with plain
    nests to ``lines``.  Files whose window holds a conditional or a call
    are scheduled serially by the vectorizer; the others can vectorize.
    """
    from repro.corpus.generator import STYLES, generate_program

    window = tuple(
        STYLES[(index + offset) % len(STYLES)] for offset in range(styles)
    )
    return generate_program(
        f"{stream}{index}",
        lines,
        styles,
        seed=derived_seed(seed, stream, index),
        styles=window,
    ).source


class CorpusBatch(CompileWorkload):
    """A code base of generated programs through one warm process.

    The process-wide problem cache is cleared once per pass and stays warm
    across the files of a pass.
    """

    name = "corpus-batch"
    pass_size = 400
    lines = 40
    styles = 3

    def source(self, stream: str, index: int) -> str:
        return corpus_source(
            self.seed, f"corpus-{stream}", index, self.lines, self.styles
        )


class SolveCold(CompileWorkload):
    """Solve-bound linearized nests, each file compiled from a cold cache.

    See :func:`solve_source` for the shape of a file.
    """

    name = "solve-cold"
    pass_size = 400
    clear_per_op = True

    def source(self, stream: str, index: int) -> str:
        return solve_source(derived_seed(self.seed, f"solve-{stream}", index))


#: Symbolic extents, one per linearized dimension beyond the first.
SYMBOLS = ("NX", "NY", "NZ")
#: Range of constant loop extents per nest depth, bounded so the brute-force
#: group enumeration of a carried subscript stays within one size class.
EXTENTS = {2: (4, 7), 3: (3, 5), 4: (2, 4)}
#: Statements per nest: one write and one read, so each nest yields two
#: reference pairs (the write with itself, and the write with the read).
STATEMENTS = 1


def solve_source(seed: int) -> str:
    """One file of three linearized nests, one array each.

    * ``split``    — every stride is the product of the inner extents, so
      delinearization splits the equation per dimension;
    * ``carry``    — one stride is one inner extent short, so the inner
      index can carry into the next dimension and the groups merge;
    * ``symbolic`` — strides are products of ``NX``/``NY``/``NZ``.

    Every file has a split nest of depth 3 or 4, a carry nest of depth 2
    or 3 and a 3-D symbolic nest, with a fixed statement count per nest:
    the same number of reference pairs per file and one cost class (a 4-D
    symbolic nest alone would cost as much as the other two).
    """
    rng = random.Random(seed)
    layout = [
        ("split", rng.choice((3, 4))),
        ("carry", rng.choice((2, 3))),
        ("symbolic", 3),
    ]
    decls: list[str] = []
    body: list[str] = []
    for n, (kind, depth) in enumerate(layout):
        decl, lines = _solve_nest(rng, n, depth, kind)
        decls.append(decl)
        body.extend(lines)
    return "\n".join(decls + body) + "\n"


def _solve_nest(rng: random.Random, n: int, depth: int, kind: str):
    loop_vars = [f"{v}{n}" for v in "ijkl"[:depth]]
    array, label = f"A{n}", 10 + n
    if kind == "symbolic":
        uppers = [f"{SYMBOLS[d]}-1" for d in range(depth - 1)]
        uppers.append(str(rng.randrange(2, 4)))
        strides = ["1"]
        for d in range(1, depth):
            strides.append("*".join(SYMBOLS[:d]))
        decl = f"REAL {array}(0:{'*'.join(SYMBOLS[: depth - 1])}*4+64)"
    else:
        extents = [rng.randrange(*EXTENTS[depth]) for _ in range(depth)]
        uppers = [str(e - 1) for e in extents]
        carried = rng.randrange(depth - 1)
        values = [1]
        for d in range(depth - 1):
            stride = values[-1] * extents[d]
            if kind == "carry" and d == carried:
                stride -= values[-1]
            values.append(stride)
        decl = f"REAL {array}(0:{values[-1] * extents[-1] + 64})"
        strides = [str(v) for v in values]
    subscript = "+".join(
        var if stride == "1" else f"{stride}*{var}"
        for var, stride in zip(loop_vars, strides)
    )
    lines = [
        f"DO {label} {var} = 0, {upper}"
        for var, upper in zip(loop_vars, uppers)
    ]
    for s in range(STATEMENTS):
        write, read = rng.randrange(12), rng.randrange(12)
        prefix = f"{label} " if s == STATEMENTS - 1 else ""
        lines.append(
            f"{prefix}{array}({subscript}+{write}) = "
            f"{array}({subscript}+{read}) + 1"
        )
    return decl, lines


# -- the resident daemon ------------------------------------------------------


#: Statement lines an edit may touch: assignments, not declarations or
#: control flow.
_NOT_EDITABLE = re.compile(
    r"^\s*(\d+\s+)?(REAL|INTEGER|COMMON|EQUIVALENCE|SUBROUTINE|END|DO|IF|"
    r"ELSE|ENDIF|CALL|CONTINUE)\b"
)
#: An additive constant: a literal after ``+`` or ``-`` that is not a
#: coefficient (``+3`` in ``C(i+10*j+3)``, not the stride ``10``).
_LITERAL = re.compile(r"[+-]\s*(\d+)(?!\d)(?!\s*\*)")


def edit_statement(text: str, rng: random.Random) -> str:
    """A one-statement edit: change one additive constant (a subscript
    offset or an increment) on the right-hand side of one assignment in the
    main program, keeping the document's line count.  Strides stay: changing
    one turns a cheap problem into a solve-bound one, which is what
    ``solve-cold`` measures."""
    lines = text.splitlines()
    main_end = lines.index("END") if "END" in lines else len(lines)
    candidates = [
        i
        for i, line in enumerate(lines[:main_end])
        if "=" in line
        and not _NOT_EDITABLE.match(line)
        and _LITERAL.search(line.split("=", 1)[1])
    ]
    index = rng.choice(candidates)
    lhs, rhs = lines[index].split("=", 1)
    literals = list(_LITERAL.finditer(rhs))
    target = rng.choice(literals)
    value = int(target.group(1))
    replacement = rng.choice([v for v in range(1, 10) if v != value])
    rhs = rhs[: target.start(1)] + str(replacement) + rhs[target.end(1) :]
    lines[index] = f"{lhs}={rhs}"
    return "\n".join(lines) + "\n"


def read_hwm_mb(pid: int) -> float:
    """Peak resident set (``VmHWM``) of a live process, in MiB."""
    for line in Path(f"/proc/{pid}/status").read_text().splitlines():
        if line.startswith("VmHWM:"):
            return int(line.split()[1]) / 1024.0
    raise RuntimeError(f"no VmHWM for pid {pid}")


class ServeEdit:
    """``repro serve`` over stdio with one worker, driven by one client.

    The client opens ``documents`` generated programs of one size, then
    sends a seeded stream of one-statement edits; op ``k`` is a
    ``didChange`` of document ``k mod documents`` followed by ``lint``, timed
    as one round trip.  Pass ``p`` sends its own edit stream, starting
    where pass ``p - 1`` left the documents, and pass 0 starts from the
    generated text, so pass ``p`` of a seed does the same work in every run.
    """

    name = "serve-edit"
    documents = 96
    pass_size = 240
    lines = 40
    styles = 3
    #: ``lint`` options of every request.  The schedule verifier needs the
    #: dependence graph, so pairs are still evaluated (or replayed), then
    #: vectorized and verified.  The soundness auditor is off: it re-checks
    #: each re-evaluated pair by brute force over iteration boxes of up to
    #: 20,000 points, so an edit costs 20 ms or 300 ms depending on which
    #: statement it touches, and the ops fall into two populations.
    lint_options = {"audit": False, "schedule": True}
    warmup_ops = 8

    def __init__(self, seed: int):
        self.seed = seed
        self.client = None
        self._spare: list = []
        self.texts: list[str] = []
        self.edits: list[str] = []
        self.last_output: list[str] = []
        self.daemon_pid = 0

    def _document(self, stream: str, index: int) -> str:
        return corpus_source(
            self.seed, f"serve-{stream}", index, self.lines, self.styles
        )

    @staticmethod
    def uri(index: int) -> str:
        return f"doc{index}.f"

    def _spawn(self):
        from repro.server.client import ServeClient

        process = subprocess.Popen(
            [sys.executable, "-m", "repro", "serve", "--workers", "1"],
            stdin=subprocess.PIPE,
            stdout=subprocess.PIPE,
            text=True,
            env=subprocess_env(),
        )
        client = ServeClient(process.stdout, process.stdin, process=process)
        return client, process.pid

    def setup_once(self) -> None:
        """Daemon start to the first lint answer on a fixed document."""
        client, pid = self._spawn()
        self._spare.append((client, pid))
        client.result("health")
        text = corpus_source(
            SETUP_SEED, "serve-setup", 0, self.lines, self.styles
        )
        client.result("open", {"uri": "setup.f", "text": text})
        client.result("lint", {"uri": "setup.f", **self.lint_options})
        client.result("close", {"uri": "setup.f"})

    def prepare(self) -> None:
        """Take the last set-up daemon (or a fresh one) and warm it up."""
        if not self._spare:
            self._spare.append(self._spawn())
        client, pid = self._spare.pop()
        self.close()
        self.client, self.daemon_pid = client, pid
        # Warm-up on a document outside the timed set.
        rng = random.Random(derived_seed(self.seed, "serve-warmup-edits", 0))
        text = self._document("warmup", 0)
        self.client.result("open", {"uri": "warmup.f", "text": text})
        for _ in range(self.warmup_ops):
            text = edit_statement(text, rng)
            self.client.result("didChange", {"uri": "warmup.f", "text": text})
            self.client.result("lint", {"uri": "warmup.f", **self.lint_options})
        self.client.result("close", {"uri": "warmup.f"})

    def begin_pass(self, p: int) -> None:
        """Pass 0 (re)opens and lints the generated documents; pass ``p``
        edits them where pass ``p - 1`` left them."""
        if p == 0:
            self.texts = []
            self.last_output = []
            for index in range(self.documents):
                text = self._document("timed", index)
                uri = self.uri(index)
                self.client.result("open", {"uri": uri, "text": text})
                answer = self.client.result(
                    "lint", {"uri": uri, **self.lint_options}
                )
                self.texts.append(text)
                self.last_output.append(answer["output"])
        rng = random.Random(derived_seed(self.seed, "serve-edits", p))
        texts = list(self.texts)
        self.edits = []
        for k in range(self.pass_size):
            index = k % self.documents
            texts[index] = edit_statement(texts[index], rng)
            self.edits.append(texts[index])
        gc.collect()

    def op(self, k: int) -> OpResult:
        index = k % self.documents
        uri, text = self.uri(index), self.edits[k]
        started = time.perf_counter()
        changed = self.client.request("didChange", {"uri": uri, "text": text})
        middle = time.perf_counter()
        linted = self.client.request("lint", {"uri": uri, **self.lint_options})
        seconds = time.perf_counter() - started
        ok = "error" not in changed and "error" not in linted
        result = linted.get("result", {})
        self.texts[index] = text
        self.last_output[index] = result.get("output")
        return OpResult(
            seconds=seconds,
            ok=ok,
            degraded=bool(result.get("degraded", True)),
            calls={
                "didchange": middle - started,
                "lint": started + seconds - middle,
            },
        )

    def checkpoint(self) -> int:
        """Each document's last daemon lint must equal a one-shot render."""
        from repro.lint.diagnostics import render_json
        from repro.lint.engine import lint_source

        failed = 0
        for index, text in enumerate(self.texts):
            report = lint_source(
                text, jobs=1, use_cache=True, **self.lint_options
            )
            expected = render_json(report.diagnostics, filename=self.uri(index))
            failed += self.last_output[index] != expected
        return failed

    def base_checks(self) -> list[OpResult]:
        """Count and check the documents as the base pass left them.

        ``lint`` answers carry no verdict or vectorization counts, so each
        document is compiled one-shot here and checked with
        :func:`executes_identically`; the daemon also vectorizes it, and its
        answer must equal the one-shot output.
        """
        from repro.driver import compile_fortran
        from repro.vectorizer import emit_program

        results = []
        for index, text in enumerate(self.texts):
            answer = self.client.result("vectorize", {"uri": self.uri(index)})
            report = compile_fortran(text)
            lines = [
                str(d)
                for d in (*report.schedule_diagnostics, *report.degradations)
            ]
            expected = emit_program(report.plan) + "".join(
                f"{line}\n" for line in lines
            )
            result = compile_result(report, 0.0)
            result.ok = result.ok and answer["output"] == expected
            results.append(result)
        return results

    def health_counters(self) -> dict:
        return dict(self.client.result("health")["counters"])

    def peak_rss_mb(self) -> float:
        """Peak resident set of the daemon plus its worker."""
        health = self.client.result("health")
        pids = [self.daemon_pid]
        pids += [w["pid"] for w in health["workers"] if w.get("pid")]
        return sum(read_hwm_mb(pid) for pid in pids)

    def close(self) -> None:
        clients = [client for client, _pid in self._spare]
        if self.client is not None:
            clients.append(self.client)
        for client in clients:
            try:
                client.shutdown()
            except (ConnectionError, OSError, ValueError):
                pass
            client.close()
        self.client = None
        self._spare = []


WORKLOADS = {
    cls.name: cls for cls in (CorpusBatch, SolveCold, ServeEdit)
}
