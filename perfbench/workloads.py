"""The benchmark's workloads, their inputs and their answer checks.

* ``grid_orbital`` and ``grid_volumes`` run ``semilie.verify.run_suite`` on
  the default ``SweepConfig``.  The default grid is the input by definition,
  so these two ignore the seed; their check counts are pinned.
* ``calc_wide`` is a seeded stream of calculator queries, each one
  ``semilie.cli.main([..., "--json"])`` call, on tuples drawn from the
  off-grid ranges r <= 30, ve <= 40, vb >= -50, odd vb + vc <= 41,
  vda in {0..20, inf}, plus ``bc s3 --basis j`` (j <= 20) and
  ``kernel-matrix --stage M''`` (N <= 10).

The checks import the library themselves and run outside the timed region.
"""

from __future__ import annotations

import json
import random

GRID_SUITES = {
    "grid_orbital": ("orbital", "miracle", "afl", "kernel", "satake"),
    "grid_volumes": ("volumes", "quaternion"),
}

# Checks each suite makes on the default grid.  A speed-up counts only with
# these unchanged, so any drift is scored as failed checks.
PINNED_CHECKS = {
    "orbital": 240_240,
    "miracle": 3_696,
    "afl": 13_440,
    "kernel": 1_248,
    "satake": 50,
    "volumes": 1_022_058,
    "quaternion": 120,
}

QUERY_KINDS = ("orbital", "derivative", "int_total", "combo", "bc_s3", "kernel_matrix")
CALC_QUERIES = 720  # one calc_wide pass: 120 queries of each kind
ODD_SUMS = range(1, 42, 2)
VDA_VALUES = tuple(str(v) for v in range(21)) + ("inf",)


def score_suite(name: str, checked: int, failures: int) -> tuple[int, int]:
    """(attempted, failed) for one suite run.  Checks missing from or added
    to the pinned count fail, so a suite with 0 checks fails entirely."""
    pinned = PINNED_CHECKS[name]
    attempted = max(checked, pinned)
    return attempted, min(attempted, failures + abs(checked - pinned))


# ------------------------------------------------------------ calc_wide inputs

def _strata(rng: random.Random, values, n: int) -> list:
    """n draws from ``values``, one from each of n equal strata, in seeded
    order.  Every seed gets nearly the same spread of each parameter, so
    the cost of a pass varies little from seed to seed."""
    k = len(values)
    picks = [values[(i * k + rng.randrange(k)) // n] for i in range(n)]
    rng.shuffle(picks)
    return picks


def _draw(rng: random.Random, kind: str, n: int) -> list[dict]:
    if kind == "bc_s3":
        cols = {"j": range(21)}
    elif kind == "kernel_matrix":
        cols = {"sum_bc": ODD_SUMS, "vda": VDA_VALUES, "N": range(11)}
    else:
        cols = {"r": range(1 if kind == "combo" else 0, 31), "sum_bc": ODD_SUMS,
                "vb_step": range(1000), "ve": range(41), "vda": VDA_VALUES}
    rows = [dict(zip(cols, row)) for row in zip(*(_strata(rng, v, n) for v in cols.values()))]
    for t in rows:
        if "vb_step" in t:  # vb uniform in [-50, vb + vc]
            s = t.pop("sum_bc")
            t["vb"] = -50 + t.pop("vb_step") * (s + 51) // 1000
            t["vc"] = s - t["vb"]
    return rows


def _argv(kind: str, t: dict) -> list[str]:
    if kind == "bc_s3":
        return ["bc", "s3", "--basis", str(t["j"]), "--json"]
    if kind == "kernel_matrix":
        return ["kernel-matrix", "--sum-bc", str(t["sum_bc"]), "--vda", t["vda"],
                "-N", str(t["N"]), "--stage", "M''", "--json"]
    head = {"orbital": ["orbital"], "derivative": ["derivative"],
            "int_total": ["int", "--mode", "total"], "combo": ["combo"]}[kind]
    tail = ["--oracle", "--json"] if kind == "orbital" else ["--json"]
    return head + ["-r", str(t["r"]), "--vb", str(t["vb"]), "--vc", str(t["vc"]),
                   "--ve", str(t["ve"]), "--vda", t["vda"]] + tail


def make_queries(seed: int, n: int = CALC_QUERIES) -> list[tuple[str, dict, list[str]]]:
    """The seeded query list as (kind, parameters, argv) triples: n / 6
    queries of each kind, each parameter stratified over its range, in a
    shuffled order."""
    rng = random.Random(seed)
    per_kind = n // len(QUERY_KINDS)
    drawn = {kind: iter(_draw(rng, kind, per_kind)) for kind in QUERY_KINDS}
    order = [kind for kind in QUERY_KINDS for _ in range(per_kind)]
    rng.shuffle(order)
    queries = []
    for kind in order:
        t = next(drawn[kind])
        queries.append((kind, t, _argv(kind, t)))
    return queries


# ------------------------------------------------------------ calc_wide checks

class AnswerChecker:
    """Checks each calculator answer against an identity it must satisfy:

    * ``orbital --oracle``: the closed form printed as JSON and ``oracle: match``;
    * ``derivative`` == ``int --mode total`` for the same tuple, both ways;
    * ``combo`` at r == D(r) - D(r - 1);
    * ``bc s3 --basis j``: the weighted sum of basis images up to j, with
      image j read from the answer, == ``satake_u3_indicator(j)``;
    * ``kernel-matrix --stage M''``: its shape, zeros below the
      anti-diagonal and the predicted anti-diagonal entries.
    """

    def __init__(self):
        from semilie import exactpoly, intersection, kernel, orbital, satake

        self.ep, self.isec, self.kern, self.orb, self.sat = exactpoly, intersection, kernel, orbital, satake
        self._bc_table = None

    def _vda(self, text: str):
        return self.orb.INFINITY if text == "inf" else int(text)

    def _params(self, t: dict):
        return self.orb.OrbitalParams(r=t["r"], vb=t["vb"], vc=t["vc"], ve=t["ve"], vda=self._vda(t["vda"]))

    def check(self, kind: str, t: dict, rc, out: str) -> bool:
        if rc != 0:
            return False
        try:
            return getattr(self, "_check_" + kind)(t, out)
        except (ValueError, KeyError, IndexError, TypeError):
            return False

    def _check_orbital(self, t, out):
        lines = out.splitlines()
        return len(lines) == 2 and lines[1] == "oracle: match" and "t_terms" in json.loads(lines[0])

    def _check_derivative(self, t, out):
        return json.loads(out) == self.isec.int_total(self._params(t)).to_json()

    def _check_int_total(self, t, out):
        return json.loads(out) == self.orb.derivative_closed_form(self._params(t)).to_json()

    def _check_combo(self, t, out):
        p = self._params(t)
        d = self.orb.derivative_closed_form
        return json.loads(out) == (d(p) - d(p.with_r(p.r - 1))).to_json()

    def _check_bc_s3(self, t, out):
        if self._bc_table is None:
            self._bc_table = self.sat.bc_s3_table(20)
        j = t["j"]
        total = self.sat.SatakeY.from_json(json.loads(out))
        for i in range(j):
            total = total + self._bc_table[i].scale(self.sat.bc_s3_weight(j, i))
        return total == self.sat.satake_u3_indicator(j)

    def _check_kernel_matrix(self, t, out):
        data = json.loads(out)
        entries = tuple(tuple(self.ep.QPolynomial.from_json(e) for e in row) for row in data["rows"])
        m = self.kern.DerivMatrix(t["sum_bc"], self._vda(t["vda"]), t["N"], entries)
        half = m.theta // 2
        return (
            data["stage"] == "M''"
            and m.rows == t["N"] + half + 2
            and all(len(row) == t["N"] + 1 for row in entries)
            and all(m.entry(r + half + 1, r) == self.kern.predicted_antidiagonal(m, r) for r in range(m.cols))
            and not any(m.entry(i, r) for r in range(m.cols) for i in range(r + half + 2, m.rows))
        )
