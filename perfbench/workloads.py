"""Workload inputs for the milnor-lab benchmark, and the correctness gate.

Everything in this module is computed from curve-specs alone, without
importing the program: the analyze pools, the seeded draws, the closed
forms the gate compares reports against, and the size descriptors
(V, E, gadgets, max m_i, sum m_i^2) that say how much work a datum is.
"""

from __future__ import annotations

import hashlib
import json
import random
from dataclasses import dataclass
from math import gcd

# ---------------------------------------------------------------------------
# workloads
# ---------------------------------------------------------------------------

ACCEPTANCE = (3, 4, 3, 3)   # the 20,024-datum acceptance corpus
SMOKE_CORPUS = (2, 2, 1, 2)


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    main: str              # "verify" or "analyze": the phase that gets --seconds
    verify_bounds: tuple   # (max_branches, max_mult, max_delta, max_int)
    pool: str              # analyze pool name, see POOLS
    draw_size: int
    # The machine's speed drifts by tens of percent within seconds, so the
    # side phase is spread over the run instead of timed in one stretch.
    # main "verify": analyze passes, half before and half after the verify;
    # main "analyze": verify runs per analyze pass, one after each chunk.
    side: int


WORKLOADS = {
    w.name: w for w in (
        Workload(
            "corpus-sweep",
            "verify the acceptance corpus at --jobs 1: per-datum overhead of "
            "fibre, invariants and sweep on many tiny graphs",
            "verify", ACCEPTANCE, "tiny", 300, 8,
        ),
        Workload(
            "analyze-high-mult",
            "analyze germs with large m_i and nonzero k_i: dense SNF of "
            "m x m matrices dominates",
            "analyze", (2, 16, 0, 2), "high-mult", 80, 5,
        ),
        Workload(
            "analyze-wide-network",
            "analyze 3-6 branch germs with big networks and m_i <= 4: graph "
            "work dominates, SNF stays tiny",
            "analyze", (4, 1, 2, 2), "wide-network", 120, 5,
        ),
    )
}


# ---------------------------------------------------------------------------
# datums from curve-specs (an independent expansion of the spec formats)
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Datum:
    mults: tuple[int, ...]
    deltas: tuple[int, ...]
    inter: tuple[tuple[int, ...], ...]

    @property
    def r(self) -> int:
        return len(self.mults)


def expand(spec: dict) -> Datum:
    family = spec.get("family")
    if family == "monomial":
        return Datum((spec["p"], spec["q"]), (0, 0), ((0, 1), (1, 0)))
    if family == "power":
        base = expand(spec["base"])
        e = spec["exponent"]
        return Datum(tuple(m * e for m in base.mults), base.deltas, base.inter)
    if family == "quasihomogeneous":
        br = [(b["a"], b["b"], b["multiplicity"]) for b in spec["branches"]]
        r = len(br)
        inter = [[0] * r for _ in range(r)]
        for i in range(r):
            for j in range(i + 1, r):
                (ai, bi, _), (aj, bj, _) = br[i], br[j]
                v = ai * bi if (ai, bi) == (aj, bj) else min(ai * bj, aj * bi)
                inter[i][j] = inter[j][i] = v
        return Datum(tuple(m for _, _, m in br),
                     tuple((a - 1) * (b - 1) // 2 for a, b, _ in br),
                     tuple(tuple(row) for row in inter))
    return Datum(tuple(b["multiplicity"] for b in spec["branches"]),
                 tuple(b["delta"] for b in spec["branches"]),
                 tuple(tuple(row) for row in spec["intersections"]))


def sizes(d: Datum) -> dict:
    """Fibre-graph sizes from the datum: one gadget per double point, with
    gcd(p, q) annulus vertices and gcd + p + q edges each."""
    r, m = d.r, d.mults
    gadgets = sum(d.deltas)
    vertices = sum(m) + sum(mi * di for mi, di in zip(m, d.deltas))
    edges = sum(3 * mi * di for mi, di in zip(m, d.deltas))
    for i in range(r):
        for j in range(i + 1, r):
            n, g = d.inter[i][j], gcd(m[i], m[j])
            gadgets += n
            vertices += n * g
            edges += n * (g + m[i] + m[j])
    return {"V": vertices, "E": edges, "gadgets": gadgets,
            "max_m": max(m), "sum_m2": sum(x * x for x in m)}


def describe(datums) -> dict:
    """Workload descriptor: datum count and the spread of each size."""
    rows = [sizes(d) for d in datums]
    out = {"datums": len(rows)}
    for key in ("V", "E", "gadgets", "max_m", "sum_m2"):
        vals = sorted(row[key] for row in rows)
        n = len(vals)
        out[key] = {"min": vals[0], "p50": vals[(n - 1) // 2],
                    "p90": vals[-(-9 * n // 10) - 1], "max": vals[-1],
                    "total": sum(vals)}
    return out


# ---------------------------------------------------------------------------
# analyze pools: fixed lists, so the gate can hold a reference digest per spec
# ---------------------------------------------------------------------------

def _tiny_pool(rng):
    # random datums inside the acceptance-corpus bounds
    out = []
    while len(out) < 900:
        r = rng.randint(1, 3)
        inter = [[0] * r for _ in range(r)]
        for i in range(r):
            for j in range(i + 1, r):
                inter[i][j] = inter[j][i] = rng.randint(1, 3)
        out.append({
            "branches": [{"multiplicity": rng.randint(1, 4), "delta": rng.randint(0, 3)}
                         for _ in range(r)],
            "intersections": inter,
        })
    return out


def _coprime_pair(rng, lo, hi):
    while True:
        a, b = sorted((rng.randint(lo, hi), rng.randint(lo, hi)))
        if gcd(a, b) == 1:
            return a, b


def _high_mult_pool(rng):
    cusp = {"family": "quasihomogeneous",
            "branches": [{"a": 2, "b": 3, "multiplicity": 1}]}
    out = []
    for n in range(360):
        kind = n % 10
        if kind < 6:
            # x^p y^q with varied gcd(p, q) = gcd(m_i, k_i)
            g = rng.choice((1, 1, 2, 3, 4, 5, 6, 8, 10, 12))
            lo, hi = -(-20 // g), 120 // g
            p, q = rng.randint(lo, hi) * g, rng.randint(lo, hi) * g
            out.append({"family": "monomial", "p": p, "q": q})
        elif kind < 9:
            r = rng.randint(2, 3)
            out.append({"family": "quasihomogeneous", "branches": [
                dict(zip(("a", "b"), _coprime_pair(rng, 1, 5)),
                     multiplicity=rng.randint(12, 90))
                for _ in range(r)
            ]})
        elif n % 20 == 9:
            # k_i = 0: the power of a cusp, whose A - I is the zero matrix
            out.append({"family": "power", "base": cusp,
                        "exponent": rng.randint(20, 120)})
        else:
            p = rng.randint(20, 110)
            out.append({"family": "monomial", "p": p, "q": p})  # k_i = 0 too
    return out


def _wide_network_pool(rng):
    out = []
    while len(out) < 360:
        r = rng.randint(3, 6)
        reduced = rng.random() < 0.25
        spec = {"family": "quasihomogeneous", "branches": [
            dict(zip(("a", "b"), _coprime_pair(rng, 2, 16)),
                 multiplicity=1 if reduced else rng.randint(1, 4))
            for _ in range(r)
        ]}
        if 1500 <= sizes(expand(spec))["E"] <= 25000:
            out.append(spec)
    return out


POOLS = {
    "tiny": _tiny_pool,
    "high-mult": _high_mult_pool,
    "wide-network": _wide_network_pool,
}


def pool(name: str) -> list[dict]:
    """The fixed spec pool; it never depends on the benchmark seed."""
    return POOLS[name](random.Random(f"milnor-lab pool {name}"))


def pool_sha(specs) -> str:
    return hashlib.sha256(json.dumps(specs, sort_keys=True).encode()).hexdigest()


def draw(order: list[int], size: int, seed: int, smoke: bool = False) -> list[int]:
    """Pool indices for one seeded draw.

    ``order`` lists the pool's indices from the fastest to the slowest
    analyze call, as measured when the reference was taken.  It is cut into
    ``size`` strata of equal count and the seed picks one spec per stratum,
    so every seed draws a different set with the same latency profile.
    Smoke mode draws from the fastest quarter.
    """
    if smoke:
        order = order[: len(order) // 4]
    rng = random.Random(seed)
    picked = []
    for s in range(size):
        stratum = order[s * len(order) // size:(s + 1) * len(order) // size]
        picked.append(rng.choice(stratum))
    rng.shuffle(picked)
    return picked


def spec_text(spec: dict) -> str:
    return json.dumps(spec, separators=(",", ":"))


# ---------------------------------------------------------------------------
# the correctness gate
# ---------------------------------------------------------------------------

def report_digest(text: str) -> str:
    """Digest of a report with its ``version`` field left out."""
    report = json.loads(text)
    report.pop("version", None)
    return hashlib.sha256(
        json.dumps(report, indent=2, ensure_ascii=False).encode()
    ).hexdigest()[:16]


def _gcd_all(values) -> int:
    g = 0
    for v in values:
        g = gcd(g, v)
    return g


def check_report(spec: dict, text: str, digest: str | None) -> list[str]:
    """Closed-form checks of one analyze report; returns the mismatches."""
    d = expand(spec)
    rep = json.loads(text)
    bad = []

    def expect(what, got, want):
        if got != want:
            bad.append(f"{what}: got {got!r}, expected {want!r}")

    expect("datum", rep["datum"], {
        "branches": [{"multiplicity": m, "delta": dl} for m, dl in zip(d.mults, d.deltas)],
        "intersections": [list(row) for row in d.inter],
    })
    comps = _gcd_all(d.mults)
    chi = sum(
        m * (1 - 2 * dl - sum(d.inter[i][j] for j in range(d.r) if j != i))
        for i, (m, dl) in enumerate(zip(d.mults, d.deltas))
    )
    b1 = comps - chi
    fibre = rep["fibre"]
    expect("fibre.d", fibre["d"], comps)
    expect("fibre.b0", fibre["b0"], comps)
    expect("fibre.chi", fibre["chi"], chi)
    expect("fibre.b1", fibre["b1"], b1)

    singular = [i for i, m in enumerate(d.mults) if m >= 2]
    if singular:
        got = (rep["beta"] or {}).get("value")
        expect("beta", got, b1 - comps + sum(d.mults[i] for i in singular))
        if spec.get("family") == "monomial" and min(d.mults) >= 2:
            expect("beta = p + q", got, spec["p"] + spec["q"])
    else:
        expect("beta", rep["beta"], None)
    vertical = rep["vertical"]
    expect("vertical branches", [v["branch"] for v in vertical], [i + 1 for i in singular])
    for v, i in zip(vertical, singular):
        m = d.mults[i]
        k = sum(d.mults[j] * d.inter[i][j] for j in range(d.r) if j != i) % m
        g = gcd(m, k)
        expect(f"branch {i + 1} k", v["k"], k)
        expect(f"branch {i + 1} components", v["components"], g)
        expect(f"branch {i + 1} coker rank", v["coker_free_rank"], g)
        expect(f"branch {i + 1} coker torsion", v["coker_torsion"], [])
    if digest is not None:
        expect("report digest", report_digest(text), digest)
    return bad


def check_verify(text: str, checked: int, sha256: str) -> list[str]:
    """A verify run must check the whole corpus, find nothing, and print
    exactly the reference bytes."""
    out = json.loads(text)
    bad = []
    if out["checked"] != checked:
        bad.append(f"checked {out['checked']}, expected {checked}")
    if out["violations"]:
        bad.append(f"{len(out['violations'])} violations")
    if hashlib.sha256(text.encode()).hexdigest() != sha256:
        bad.append("stdout differs from the reference bytes")
    return bad
