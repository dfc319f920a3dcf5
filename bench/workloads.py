"""The three benchmark workloads: seeded inputs, the timed op, and its check.

Every workload is a closed loop with one client: the next op starts only
after the previous one has returned and been checked.  ``deck()`` is the
fixed sequence of ops a run repeats; the seed picks parameters or order,
never sizes, so every seed does the same amount of work.

* ``verify_suite`` -- one full ``run_verification()`` at the default grid
  plus ``report_to_json``: the self-check users run.  The suite pins its
  own sweeps and seeds, so the workload seed changes nothing.
* ``bulk_export`` -- one in-process call of the ``dunklkg`` click group
  writing a large density/evolve/spectrum export to a file.  Serialisation
  and the CLI layer dominate; the closed form is cheap.
* ``cli_cold`` -- one fresh interpreter running a subcommand at README
  sizes: start-up, imports and argument parsing dominate.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import random
import subprocess
import sys
import threading
from dataclasses import dataclass, field
from pathlib import Path
from typing import Optional

import numpy as np

from tracer import CLI_SPAN, Tracer

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"

CHILD_TIMEOUT_S = 60.0

ALPHAS = ("1/2", "3/2", "5/2", "7/2", "9/2")
XIS = ("0.5+0.2i", "0.3", "0.1-0.6i", "-0.4+0.4i", "0.2i")
# gaussian and plus branches only: minus-branch densities are artefacts of
# the x window and may be refused by a later correctness fix
CASES = (("gaussian", None), ("rational", "plus"), ("sinc", "plus"))


def child_env() -> dict:
    """Environment for child interpreters: the source tree first on the path.

    DUNKLKG_FORMAT is dropped so the CLI default (csv) is what runs; BLAS
    thread settings are inherited unchanged.
    """
    env = dict(os.environ)
    env.pop("DUNKLKG_FORMAT", None)
    rest = env.get("PYTHONPATH")
    env["PYTHONPATH"] = str(SRC) + (os.pathsep + rest if rest else "")
    return env


@dataclass
class Op:
    """One request: CLI arguments (or none) plus what its check expects."""

    label: str
    args: list = field(default_factory=list)
    expect: dict = field(default_factory=dict)


@dataclass
class Outcome:
    """What one op returned; child_* fields are set only for subprocess ops."""

    result: object = None
    child_cpu_s: float = 0.0
    child_rss_kb: int = 0
    spans: Optional[dict] = None


class Workload:
    """One workload.  ``tail_percentile`` is the highest of p50/p80/p90/p95/
    p99 that has at least ten samples beyond it at ``--seconds 30`` on this
    commit; it is fixed, not recomputed from each run's sample count, so a
    later commit that changes the op rate reports the same percentile."""

    name = ""
    in_process = True
    tail_percentile = 50.0

    def __init__(self, seed: int, workdir: Path):
        self.seed = seed
        self.workdir = workdir

    def prepare(self) -> None:
        """Set-up after import: references and warm-up ops (checked)."""
        for op in self.warmup_ops():
            if not self.check(op, self.execute(op, None)):
                raise RuntimeError(f"{self.name}: warm-up op {op.label} gave a wrong result")

    def warmup_ops(self) -> list:
        return self.deck()[:1]

    def deck(self) -> list:
        raise NotImplementedError

    def execute(self, op: Op, tracer: Optional[Tracer]) -> Outcome:
        raise NotImplementedError

    def check(self, op: Op, outcome: Outcome) -> bool:
        raise NotImplementedError


# ---------------------------------------------------------------------------
# verify_suite
# ---------------------------------------------------------------------------

VERIFY_CHECK_COUNT = 18


class VerifySuite(Workload):
    name = "verify_suite"  # 35-45 ops per run, so the tail is the median

    def deck(self) -> list:
        return [Op("run_verification")]

    def execute(self, op: Op, tracer: Optional[Tracer]) -> Outcome:
        from dunklkg import verify

        if tracer is None:
            return Outcome(verify.report_to_json(verify.run_verification(grid_h=1e-3)))
        with tracer.span("verify_suite.op"):
            return Outcome(verify.report_to_json(verify.run_verification(grid_h=1e-3)))

    def check(self, op: Op, outcome: Outcome) -> bool:
        report = json.loads(outcome.result)
        return (
            report["passed"] is True
            and report["n_pass"] == VERIFY_CHECK_COUNT
            and report["n_fail"] == 0
        )


# ---------------------------------------------------------------------------
# bulk_export
# ---------------------------------------------------------------------------

# (command, format, points).  Seven exports of about 0.3 s hold the median
# and two of about 0.5 s hold p80, so neither percentile sits on a gap
# between two op sizes; the rest span the 10k-100k range.  CSV and JSON
# have six slots each.
PROFILE_SLOTS = (
    ("density", "csv", 10_000),
    ("density", "csv", 60_000),
    ("density", "csv", 60_000),
    ("evolve", "csv", 30_000),
    ("evolve", "csv", 30_000),
    ("density", "json", 20_000),
    ("density", "json", 20_000),
    ("evolve", "json", 10_000),
    ("density", "csv", 100_000),
    ("density", "json", 40_000),
    ("density", "json", 100_000),
    ("evolve", "json", 50_000),
)
EVOLVE_TAUS = (0.7854, 2.3562)  # two blocks per evolve call
SPECTRUM_ALPHAS = 25
SPECTRUM_N_MAX = 50
CSV_COLUMNS = "x,re,im,density"


def close_to_9_digits(got: np.ndarray, ref: np.ndarray) -> bool:
    """True when every value agrees with the reference to 9 significant digits.

    '%.9g' rounding moves a value by at most 5e-9 of its magnitude; the
    absolute floor only admits values that underflow to subnormals.
    """
    return got.shape == ref.shape and bool(
        np.all(np.abs(got - ref) <= 5e-9 * np.abs(ref) + 1e-300)
    )


class BulkExport(Workload):
    name = "bulk_export"
    tail_percentile = 80.0  # 70-98 ops per run

    def __init__(self, seed: int, workdir: Path):
        super().__init__(seed, workdir)
        self.out_path = workdir / "bulk_export.out"

    def deck(self) -> list:
        """Twelve profile exports of fixed parameters plus two seeded spectrum tables.

        The profile parameters are fixed per slot, not seeded: they change
        how many characters each number prints to, and so the writers'
        cost and the peak memory.  The seed shuffles the order.
        """
        ops = [self._profile_op(*slot, index) for index, slot in enumerate(PROFILE_SLOTS)]
        rng = random.Random(self.seed)
        ops += [self._spectrum_op(fmt, rng) for fmt in ("csv", "json")]
        rng.shuffle(ops)
        return ops

    def warmup_ops(self) -> list:
        """The smallest op of each (command, format) pair in the deck."""
        smallest = {}
        for op in self.deck():
            key = (op.args[0], op.expect["format"])
            if key not in smallest or op.expect.get("points", 0) < smallest[key].expect["points"]:
                smallest[key] = op
        return list(smallest.values())

    def _profile_op(self, command: str, fmt: str, points: int, slot: int) -> Op:
        case, branch = CASES[slot % len(CASES)]
        alpha, xi, n = ALPHAS[slot % len(ALPHAS)], XIS[2 * slot % len(XIS)], slot % 6
        args = [command, "--case", case, "--alpha", alpha, "--xi", xi, "--n", str(n)]
        if branch:
            args += ["--branch", branch]
        taus = [0.0]
        if command == "evolve":
            taus = list(EVOLVE_TAUS)
            args += ["--tau", ",".join(repr(t) for t in taus)]
        args += ["--points", str(points), "--format", fmt, "-o", str(self.out_path)]
        expect = dict(format=fmt, case=case, branch=branch, alpha=alpha, xi=xi, n=n,
                      taus=taus, points=points, evolved=command == "evolve")
        return Op(f"{command}-{fmt}-{points}-slot{slot}", args, expect)

    def _spectrum_op(self, fmt: str, rng: random.Random) -> Op:
        case, _ = rng.choice(CASES)
        nums = sorted(rng.sample(range(1, 100, 2), SPECTRUM_ALPHAS))
        alphas = [f"{num}/2" for num in nums]
        args = ["spectrum", "--case", case]
        for alpha in alphas:
            args += ["--alpha", alpha]
        args += ["--n", f"0..{SPECTRUM_N_MAX}", "--format", fmt, "-o", str(self.out_path)]
        return Op(f"spectrum-{fmt}", args, dict(format=fmt, case=case, alphas=alphas, points=0))

    def execute(self, op: Op, tracer: Optional[Tracer]) -> Outcome:
        from dunklkg import cli

        if tracer is None:
            return Outcome(cli.cli.main(op.args, prog_name="dunklkg", standalone_mode=False))
        with tracer.span(CLI_SPAN):
            return Outcome(cli.cli.main(op.args, prog_name="dunklkg", standalone_mode=False))

    def check(self, op: Op, outcome: Outcome) -> bool:
        if outcome.result not in (None, 0):
            return False
        text = self.out_path.read_text(encoding="utf-8")
        self.out_path.unlink()
        if op.args[0] == "spectrum":
            return self._check_spectrum(op.expect, text)
        return self._check_profiles(op.expect, text)

    def _check_profiles(self, exp: dict, text: str) -> bool:
        from dunklkg.coherent import build_profile
        from dunklkg.model import CurvatureCase, parse_alpha, parse_complex

        refs = []
        for tau in exp["taus"]:
            prof = build_profile(
                CurvatureCase.from_name(exp["case"]), parse_alpha(exp["alpha"]), exp["n"],
                parse_complex(exp["xi"]), branch=exp["branch"], tau=tau,
                points=exp["points"], evolved=exp["evolved"],
            )
            refs.append(np.column_stack([prof.x, prof.values.real, prof.values.imag, prof.density]))
        if exp["format"] == "json":
            blocks = [
                np.array([[s["x"], s["re"], s["im"], s["density"]] for s in prof["samples"]])
                for prof in json.loads(text)["profiles"]
            ]
            return len(blocks) == len(refs) and all(
                got.shape == ref.shape and np.array_equal(got, ref) for got, ref in zip(blocks, refs)
            )
        blocks = parse_csv_blocks(text)
        return len(blocks) == len(refs) and all(
            close_to_9_digits(got, ref) for got, ref in zip(blocks, refs)
        )

    def _check_spectrum(self, exp: dict, text: str) -> bool:
        from dunklkg.model import CurvatureCase, parse_alpha
        from dunklkg.spectrum import spectrum_table

        table = spectrum_table(
            CurvatureCase.from_name(exp["case"]), [parse_alpha(a) for a in exp["alphas"]],
            SPECTRUM_N_MAX, 1.0, 1.0,
        )
        ref = [
            (str(alpha), n, pair.e_plus.real, pair.e_plus.imag,
             None if pair.e_minus is None else pair.e_minus.real,
             None if pair.e_minus is None else pair.e_minus.imag)
            for alpha, n, pair in table.rows
        ]
        if len(ref) != len(exp["alphas"]) * (SPECTRUM_N_MAX + 1):
            return False
        if exp["format"] == "json":
            got = [
                (o["alpha"], o["n"], o["re_e_plus"], o["im_e_plus"], o["re_e_minus"], o["im_e_minus"])
                for o in json.loads(text)
            ]
            return got == ref
        lines = text.splitlines()
        if lines[0] != "case,alpha,n,re_e_plus,im_e_plus,re_e_minus,im_e_minus":
            return False
        rows = [line.split(",") for line in lines[1:]]
        if len(rows) != len(ref) or any(
            len(r) != 7 or r[0] != exp["case"] or (r[1], int(r[2])) != e[:2]
            for r, e in zip(rows, ref)
        ):
            return False
        got = np.array([[_csv_float(v) for v in r[3:]] for r in rows])
        want = np.array([[np.nan if v is None else v for v in e[2:]] for e in ref])
        absent = np.isnan(want)
        return bool(np.array_equal(np.isnan(got), absent)) and close_to_9_digits(
            got[~absent], want[~absent]
        )


def _csv_float(token: str) -> float:
    return np.nan if token == "" else float(token)


def parse_csv_blocks(text: str) -> list:
    """Density CSV -> one (points, 4) array per '# ...' block."""
    blocks = []
    rows = None
    expect_columns = False
    for line in text.splitlines():
        if line.startswith("#"):
            rows = []
            blocks.append(rows)
            expect_columns = True
        elif expect_columns:
            if line != CSV_COLUMNS:
                raise ValueError(f"expected column line, got {line!r}")
            expect_columns = False
        elif line:
            rows.append(line)
    return [
        np.array(",".join(rows).split(","), dtype=float).reshape(-1, 4) if rows else np.empty((0, 4))
        for rows in blocks
    ]


# ---------------------------------------------------------------------------
# cli_cold
# ---------------------------------------------------------------------------

CLI_ENTRY = "from dunklkg.cli import main; main()"
TRACED_ENTRY = BENCH_DIR / "traced_cli.py"


class CliCold(Workload):
    name = "cli_cold"
    in_process = False
    tail_percentile = 90.0  # 125-155 ops per run

    def __init__(self, seed: int, workdir: Path):
        super().__init__(seed, workdir)
        self.stdout_path = workdir / "cli_cold.stdout"
        self.stderr_path = workdir / "cli_cold.stderr"
        self.spans_path = workdir / "cli_cold.spans.json"
        self.expected: dict = {}
        self.env = child_env()

    def deck(self) -> list:
        """The five subcommands at README sizes, round-robin from a seeded start."""
        rng = random.Random(self.seed)
        case, branch = rng.choice(CASES)
        profile = ["--alpha", rng.choice(ALPHAS), "--xi", rng.choice(XIS), "--case", case]
        if branch:
            profile += ["--branch", branch]
        ops = [
            Op("spectrum", ["spectrum", "--case", rng.choice(CASES)[0],
                            "--alpha", rng.choice(ALPHAS), "--n", "0..5"]),
            Op("table", ["table", "--reproduce", rng.choice(("table1", "table2"))]),
            Op("density", ["density", *profile, "--n", "0..5", "--points", "400"]),
            Op("evolve", ["evolve", *profile, "--n", str(rng.randrange(6)),
                          "--tau", "1.5708,4.7124,6.2832,9.4248"]),
            Op("verify", ["verify", "--suite", "casimir"]),
        ]
        start = rng.randrange(len(ops))
        return ops[start:] + ops[:start]

    def prepare(self) -> None:
        from dunklkg import cli

        for op in self.deck():
            buf = io.StringIO()
            with contextlib.redirect_stdout(buf):
                code = cli.cli.main(op.args, prog_name="dunklkg", standalone_mode=False)
            if code not in (None, 0):
                raise RuntimeError(f"cli_cold: in-process {op.label} exited {code}")
            self.expected[op.label] = buf.getvalue().encode("utf-8")
        super().prepare()

    def execute(self, op: Op, tracer: Optional[Tracer]) -> Outcome:
        if tracer is None:
            argv = [sys.executable, "-c", CLI_ENTRY, *op.args]
        else:
            argv = [sys.executable, str(TRACED_ENTRY), str(self.spans_path), str(tracer.op_id),
                    *op.args]
        with open(self.stdout_path, "wb") as out, open(self.stderr_path, "wb") as err:
            proc = subprocess.Popen(argv, stdout=out, stderr=err, env=self.env, cwd=ROOT)
            watchdog = threading.Timer(CHILD_TIMEOUT_S, proc.kill)
            watchdog.start()
            try:
                _, status, usage = os.wait4(proc.pid, 0)
            finally:
                watchdog.cancel()
            proc.returncode = os.waitstatus_to_exitcode(status)
        spans = None
        if tracer is not None and self.spans_path.exists():
            spans = json.loads(self.spans_path.read_text(encoding="utf-8"))
            self.spans_path.unlink()
        return Outcome(
            result=proc.returncode,
            child_cpu_s=usage.ru_utime + usage.ru_stime,
            child_rss_kb=usage.ru_maxrss,
            spans=spans,
        )

    def check(self, op: Op, outcome: Outcome) -> bool:
        return outcome.result == 0 and self.stdout_path.read_bytes() == self.expected[op.label]


WORKLOADS = {cls.name: cls for cls in (VerifySuite, BulkExport, CliCold)}
