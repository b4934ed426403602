"""cli-cold: a stream of `python -m skewcodes.cli <subcommand> ... --machine`
calls, one fresh interpreter each, one call at a time.

Each round calls all ten subcommands once.  Presets rotate across rounds and
the seed draws sigma exponents, polynomials, points and code parameters;
the inputs are generated with the library before timing starts so that
every call exits 0.  Standard output is compared byte for byte with the same
command run in process (and, on the pinned seed, with the golden digests).
"""

from __future__ import annotations

import contextlib
import io
import os
import random
import subprocess
import sys
from math import comb, gcd

from harness import ROOT, Job, number_rounds
from skewcodes import (
    SkewRing,
    enumerate_right_divisors,
    format_element,
    format_poly,
    get_field,
    minimal_polynomial,
    moore_matrix,
    preset_names,
    vandermonde_rank,
)
from skewcodes import cli
from skewcodes.linalg import matrix_rank

POOL_ROUNDS = 30
TRACE_ROUNDS = 3
CALL_TIMEOUT = 60

DIVISOR_LADDER = {"F4": (8, 9, 10), "F8": (5, 6), "F9": (5, 6), "F16": (4, 5)}
# field -> (modulus degree, generator degree) of the code pool
CODE_POOL = {"F4": (8, 4), "F8": (6, 3), "F9": (6, 3)}
EVAL_PRESETS = ("F8", "F9", "F16", "F27", "F2_6")
ROOT_PRESETS = ("F4", "F8", "F9", "F16", "F27", "F2_6", "F2_12")
STRATEGY_BUDGET = 1 << 12


def child_env():
    env = dict(os.environ)
    src = str(ROOT / "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


class State:
    def __init__(self):
        self.fields = []
        self.rounds = []
        self.env = child_env()
        self.reference = {}


def _exponents(field):
    return [e for e in range(1, field.degree + 1) if field.degree % e == 0]


def setup(seed, timer):
    st = State()
    presets = preset_names()
    F = {name: timer.touch(f"{name}.build", get_field, name) for name in presets}
    st.fields = list(F.values())
    R4096 = SkewRing(F["F2_12"], 1)
    rng = random.Random(seed)

    pool = {}
    for name, (n, d) in CODE_POOL.items():
        field = F[name]
        for e in _exponents(field):
            ring = SkewRing(field, e)
            f = ring.x_pow_minus(n, field.one)
            pool[name, e] = [(f, g) for g in enumerate_right_divisors(f, degrees=d)[d]]
            if not pool[name, e]:
                raise AssertionError(f"no degree-{d} divisor of {f}")
    normal = []
    k = 1
    while len(normal) < 6:
        orbit = [R4096.sigma(F["F2_12"].gen ** k, j) for j in range(12)]
        if matrix_rank(moore_matrix(R4096, orbit, 12), F["F2_12"]) == 12:
            normal.append(k)
        k += 1

    def ring_args(field):
        e = rng.choice(_exponents(field))
        if e == field.degree and rng.random() < 0.5:
            return SkewRing(field, e), ["--preset", field.name, "--commutative"]
        return SkewRing(field, e), ["--preset", field.name, "--e", str(e)]

    def points(field, k):
        return [field.element(i) for i in rng.sample(range(1, field.order), k)]

    def pick(seq, r, salt):
        return seq[(r + salt) % len(seq)]

    salts = [rng.randrange(64) for _ in range(6)]
    for r in range(POOL_ROUNDS):
        jobs = []
        ring, fa = ring_args(F[pick(presets, r, salts[0])])
        jobs.append(["field-info", *fa])

        name = pick(list(DIVISOR_LADDER), r, salts[1])
        ring, fa = ring_args(F[name])
        n = rng.choice(DIVISOR_LADDER[name])
        f = ring.x_pow_minus(n, ring.field.element(rng.randrange(1, ring.field.order)))
        mode = rng.choice([["--count-only"], [], ["--degree", str(rng.randrange(1, n))]])
        jobs.append(["divisors", *fa, "--poly", format_poly(f), *mode])

        name = pick(list(CODE_POOL), r, salts[2])
        for sub in ("code", "dual", "distance"):
            field = F[name]
            e = rng.choice(_exponents(field))
            f, g = rng.choice(pool[name, e])
            argv = [sub, "--preset", name, "--e", str(e),
                    "--f", format_poly(f), "--g", format_poly(g)]
            if sub == "code":
                argv += ["--distance", "--dual", "--check-poly"]
            if sub == "distance":
                k = f.degree - g.degree
                cheap = max(field.order ** k, sum(comb(f.degree, w) for w in range(1, f.degree - k + 2)))
                argv += ["--strategy", rng.choice(["auto", "columns", "messages"])
                         if cheap <= STRATEGY_BUDGET else "auto"]
            jobs.append(argv)

        tower_args = ["--preset", "F2_6", "--e", "1", "--ext-preset", "F2_12"]
        delta, nu = rng.choice([(2, 0), (3, 0), (4, 0), (2, 1), (3, 1)])
        while True:
            k, t1, t2 = rng.randrange(1, 4095), rng.randrange(1, 64), rng.randrange(1, 64)
            if all(all((k * t * (2 ** i - 1)) % 4095 for i in range(1, 12))
                   for t in ((t1,) if nu == 0 else (t1, t2))):
                break
        verify = ["--verify-distance"] if rng.random() < 0.5 else []
        jobs.append(["bch1", *tower_args, "--alpha", f"a^{k}", "--b", str(rng.randrange(64)),
                     "--t1", str(t1), "--t2", str(t2), "--delta", str(delta),
                     "--nu", str(nu), "--n", "12", *verify])

        delta, nu = rng.choice([(2, 0), (3, 0), (4, 0), (2, 1), (3, 1)])
        t2 = rng.choice([t for t in range(1, 24) if gcd(12, t) < delta])
        alpha = "auto" if rng.random() < 0.3 else f"a^{rng.choice(normal)}"
        verify = ["--verify-distance"] if rng.random() < 0.5 else []
        jobs.append(["bch2", *tower_args, "--alpha", alpha, "--b", str(rng.randrange(12)),
                     "--t1", str(rng.choice((1, 5, 7, 11))), "--t2", str(t2),
                     "--delta", str(delta), "--nu", str(nu), *verify])

        ring, fa = ring_args(F[pick(EVAL_PRESETS, r, salts[3])])
        while True:
            n = rng.randrange(3, 7)
            pts = points(ring.field, n)
            if vandermonde_rank(ring, n, pts) == n:
                break
        jobs.append(["eval-code", *fa, "--points", ";".join(format_element(a) for a in pts),
                     "--k", str(rng.randrange(1, min(3, n - 1) + 1))])

        ring, fa = ring_args(F[pick(ROOT_PRESETS, r, salts[4])])
        pts = points(ring.field, rng.randrange(2, min(5, ring.field.order - 1) + 1))
        jobs.append(["minpoly", *fa, "--points", ";".join(format_element(a) for a in pts)])

        ring, fa = ring_args(F[pick(ROOT_PRESETS, r, salts[5])])
        m = minimal_polynomial(ring, points(ring.field, rng.randrange(1, 4)))
        jobs.append(["vanish", *fa, "--poly", format_poly(m)])

        rng.shuffle(jobs)
        st.rounds.append([Job(None, argv[0], argv + ["--machine"]) for argv in jobs])
    number_rounds(st.rounds)
    return st


def call(state, argv):
    """Run one CLI call in a fresh interpreter; (exit code, stdout)."""
    proc = subprocess.run(
        [sys.executable, "-m", "skewcodes.cli", *argv],
        cwd=ROOT, env=state.env, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
        timeout=CALL_TIMEOUT, text=True,
    )
    return proc.returncode, proc.stdout


def run(state, job, tr):
    with tr.span("cli." + job.kind):
        rc, out = call(state, job.args)
    if rc:
        tr.error("textio" if rc == cli.EXIT_PARSE else "cli")
    return rc, out


def in_process(argv):
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        rc = cli.main(list(argv))
    return rc, buf.getvalue()


def canonical(job, out):
    return f"{out[0]}\n{out[1]}"


def check(state, job, out):
    key = tuple(job.args)
    if key not in state.reference:
        state.reference[key] = in_process(key)
    problems = []
    if out[0] != 0:
        problems.append(f"exit code {out[0]}")
    if out != state.reference[key]:
        problems.append("output differs from the in-process run")
    return problems
