"""The benchmark's workloads: seeded request lists, their execution and checks.

Every request goes through ``loopalg.cli.main`` or the package's public
functions, one after another in this process (a closed loop with one
client).  Every answer is compared with an independent route before the
request counts as done; a request that fails, aborts or answers wrongly
counts in ``failed``.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass
from pathlib import Path
from time import perf_counter

# (family, rank, max degree): no configuration repeats within a pass, so no
# in-process cache helps; e6 brings non-unit pivots into the integer engine
RING_DEEP = (("su", 7, 10), ("su", 6, 12), ("e6", 6, 16))

# f4 and e6 are left out: the f4 quotient alone takes about 48 s
COHOMOLOGY_WEYL = (
    ("su", 1), ("su", 2), ("su", 3), ("su", 4),
    ("sp", 2), ("sp", 3), ("sp", 4),
    ("so-odd", 2), ("so-odd", 3), ("so-odd", 4),
    ("so-even", 3), ("so-even", 4),
    ("g2", 2),
)  # fmt: skip

# request-mix: requests per pass of each kind; the configurations of a kind
# get Zipf(1) shares in DEFAULT_CHECKED_RANKS order (small groups most popular)
MIX_KINDS = (
    ("report", "rational", 144),
    ("report", "integer", 48),
    ("compute", "rational", 17),
    ("compute", "integer", 12),
    ("series", None, 12),
    ("verify", None, 7),
)

WORKLOADS = ("ring-deep", "cohomology-weyl", "request-mix")

# untimed passes before timing starts.  The first cohomology-weyl pass runs
# every code path cold (the interpreter specialises bytecode as it runs, the
# allocator grows its arenas): its mid-sized checks take up to 1.5x their
# later time.  The first request-mix pass also fills the engines cached on
# catalog-owned presentations, which later verify requests reuse.  A
# ring-deep pass takes 10-12 s, too long to spare.
WARMUP_PASSES = {"ring-deep": 0, "cohomology-weyl": 1, "request-mix": 1}


@dataclass(frozen=True)
class Request:
    kind: str  # compute | report | series | verify | cohomology
    family: str
    rank: int
    degree: int | None = None  # None: the command's default
    coeffs: str | None = None

    @property
    def key(self) -> tuple:
        return (self.family, self.rank, self.degree, self.coeffs)

    def argv(self, cache_dir: Path, out: Path) -> list[str]:
        argv = [self.kind, "--family", self.family, "--rank", str(self.rank)]
        if self.degree is not None:
            argv += ["--max-degree", str(self.degree)]
        if self.coeffs is not None:
            argv += ["--coeffs", self.coeffs]
        if self.kind == "report":
            argv.append("--compute-missing")
        fmt = "text" if self.kind == "verify" else "json"
        return argv + ["--format", fmt, "--out", str(out), "--cache-dir", str(cache_dir)]


def zipf_quota(total: int, n: int) -> list[int]:
    """Split ``total`` over ``n`` ranks by Zipf(1) weights, largest remainder."""
    weights = [1 / k for k in range(1, n + 1)]
    scale = total / sum(weights)
    exact = [w * scale for w in weights]
    quota = [int(x) for x in exact]
    by_remainder = sorted(range(n), key=lambda i: (quota[i] - exact[i], i))
    for i in by_remainder[: total - sum(quota)]:
        quota[i] += 1
    return quota


def configurations(workload: str) -> list[tuple[str, int]]:
    """(family, rank) of every configuration the workload touches."""
    if workload == "ring-deep":
        return [(f, r) for f, r, _ in RING_DEEP]
    if workload == "cohomology-weyl":
        return list(COHOMOLOGY_WEYL)
    from loopalg.catalog import DEFAULT_CHECKED_RANKS

    return [(f.slug, r) for f, ranks in DEFAULT_CHECKED_RANKS.items() for r in ranks]


def requests_for_pass(workload: str, rng: random.Random) -> list[Request]:
    """One pass of the workload; the seeded ``rng`` sets the order."""
    if workload == "ring-deep":
        order = list(RING_DEEP)
        rng.shuffle(order)
        return [
            Request("compute", f, r, d, coeffs)
            for f, r, d in order
            for coeffs in ("rational", "integer")
        ]
    if workload == "cohomology-weyl":
        order = list(COHOMOLOGY_WEYL)
        rng.shuffle(order)
        return [Request("cohomology", f, r) for f, r in order]
    configs = configurations(workload)
    out = []
    for kind, coeffs, total in MIX_KINDS:
        for (f, r), count in zip(configs, zipf_quota(total, len(configs))):
            out += [Request(kind, f, r, None, coeffs)] * count
    rng.shuffle(out)
    return out


class References:
    """Answers from routes independent of the engines under test."""

    def __init__(self, workload: str):
        from loopalg import catalog
        from loopalg.families import LieFamily

        self.splitting: dict[tuple[str, int], list[int]] = {}
        self.weyl: dict[tuple[str, int], int] = {}
        degrees = {(f, r): d for f, r, d in RING_DEEP} if workload == "ring-deep" else {}
        for family, rank in configurations(workload):
            fam = LieFamily.from_slug(family)
            degree = degrees.get((family, rank), catalog.default_max_degree(fam))
            self.splitting[(family, rank)] = list(catalog.splitting_series(fam, rank, degree))
            self.weyl[(family, rank)] = catalog.weyl_order(fam, rank)


@dataclass
class PassResult:
    """One pass; times in seconds, scaled to the reference speed (see speed.py)."""

    wall_s: float  # requests and their checks, speed probes left out
    latencies: list[float]
    raw_wall_s: float  # the same, wall-clock
    raw_latencies: list[float]
    failed: int


class PassRunner:
    """Runs request lists against the program and checks every answer."""

    def __init__(self, workload: str, work_dir: Path, probe, tracer=None):
        from loopalg import catalog, cli, minimal_model
        from loopalg.families import LieFamily

        self.workload = workload
        self.work_dir = work_dir
        self.refs = References(workload)
        self.probe = probe
        self.tracer = tracer
        self._cli, self._catalog, self._mm, self._family = cli, catalog, minimal_model, LieFamily
        self._passes = 0

    def run(self, requests: list[Request]) -> PassResult:
        cache_dir = self.work_dir / f"cache{self._passes}"
        out = self.work_dir / "out.txt"
        self._passes += 1
        written: dict[tuple, bytes] = {}  # cache key -> output of the request that wrote it
        stamps: list[tuple[float, float, float]] = []  # start, answer, checked
        failed = 0
        self.probe.sample()
        for number, req in enumerate(requests):
            if self.tracer is not None:
                self.tracer.request = number
            t0 = perf_counter()
            try:
                if req.kind == "cohomology":
                    answer = self._cohomology(req)
                else:
                    answer = self._cli.main(req.argv(cache_dir, out))
            except Exception as err:  # a crashing request is a failed one
                print(f"request {req} raised {type(err).__name__}: {err}", flush=True)
                answer = None
            t1 = perf_counter()
            if not self._check(req, answer, out, written):
                failed += 1
                print(f"request {req} failed its check", flush=True)
            stamps.append((t0, t1, perf_counter()))
            self.probe.maybe_sample()
        self.probe.sample()
        scale = self.probe.scale
        return PassResult(
            wall_s=sum((t2 - t0) * scale(t0, t2) for t0, _, t2 in stamps),
            latencies=[(t1 - t0) * scale(t0, t1) for t0, t1, _ in stamps],
            raw_wall_s=sum(t2 - t0 for t0, _, t2 in stamps),
            raw_latencies=[t1 - t0 for t0, t1, _ in stamps],
            failed=failed,
        )

    def _cohomology(self, req: Request):
        entry = self._catalog.catalog_entry(self._family.from_slug(req.family), req.rank)
        c = entry.cohomology
        regular = self._mm.regular_sequence_check(c)
        total = self._mm.quotient_dimensions(c, c.socle_degree()).total()
        return regular, total

    def _check(self, req: Request, answer, out: Path, written: dict) -> bool:
        config = (req.family, req.rank)
        if req.kind == "cohomology":
            return answer == (True, self.refs.weyl[config])
        if answer != 0:
            return False
        data = out.read_bytes()
        if req.kind == "verify":
            return b"FAIL" not in data
        doc = json.loads(data)
        split = self.refs.splitting[config]
        if req.kind == "series":
            return doc["pbw"] == split and doc["splitting"] == split
        if req.kind == "report" and req.key in written and data != written[req.key]:
            return False
        written[req.key] = data
        if req.coeffs == "integer":
            return (
                doc["ranks"] == split
                and doc["ranks"] == doc["poincare"]
                and not any(doc["torsion"])
            )
        return doc["poincare"] == split
