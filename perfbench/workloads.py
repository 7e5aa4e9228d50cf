"""The four benchmark workloads: seeded inputs, one op each, output checks.

Every workload is a closed loop with one caller.  Its inputs form a pool of
slots with a fixed structure (curve and kind per slot); the seed only picks
the values.  The harness runs whole passes over the pool, so the mix of
cheap and expensive ops is the same in every run and for every seed.

Checks use ``oracle`` (the benchmark's own exact arithmetic) and never the
code under test.  Library calls go through module attributes at call time,
so the traced run sees them.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import random
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from fractions import Fraction
from pathlib import Path

import oracle

from kodlat import catalog, chamber, charge, cli, roots
from kodlat.charge import CentralCharge
from kodlat.exact import QC


@dataclass
class Curve:
    """A built curve plus the benchmark's own root data for it."""

    label: str
    obj: object
    gram: tuple
    marks: tuple
    affine: int
    roots: list

    @classmethod
    def build(cls, label: str) -> "Curve":
        obj = catalog.curve_from_label(label)
        return cls(label, obj, obj.gram, obj.marks, obj.affine_node,
                   oracle.finite_roots(obj.gram, obj.affine_node))


def clear_library_caches() -> None:
    """Empty every lru_cache in the library, as a fresh process has them.

    An lru_cache has ``cache_clear`` itself (its ``__wrapped__`` is the plain
    function); a tracing wrapper has not, so its ``__wrapped__`` is tried.
    """
    for mod in list(sys.modules.values()):
        if getattr(mod, "__name__", "").startswith("kodlat"):
            for obj in list(vars(mod).values()):
                clear = getattr(obj, "cache_clear", None) or \
                    getattr(getattr(obj, "__wrapped__", None), "cache_clear", None)
                if callable(clear):
                    clear()


def _pair(rng: random.Random, num: int = 12, den: int = 12) -> tuple:
    return (Fraction(rng.randint(-num, num), rng.randint(1, den)),
            Fraction(rng.randint(-num, num), rng.randint(1, den)))


def _to_charge(z0, z) -> CentralCharge:
    return CentralCharge(QC(*z0), tuple(QC(*zj) for zj in z))


def _qc_arg(p) -> str:
    return f"{p[0]},{p[1]}"


# ---------------------------------------------------------------- generators

# Denominators are fixed by position, so every seed gives operands of the
# same size: the common denominator of a charge is lcm(7..12) = 27720.
DENOMINATORS = (12, 11, 10, 9, 8, 7)


def random_charge(rng, curve: Curve):
    """A charge with values in [-8, 8]: numerators up to 60 over DENOMINATORS."""
    vals = [Fraction(rng.randint(-60, 60), DENOMINATORS[i % len(DENOMINATORS)])
            for i in range(2 * curve.obj.n + 2)]
    return (vals[0], vals[1]), [(vals[i], vals[i + 1]) for i in range(2, len(vals), 2)]


def valid_charge(rng, curve: Curve):
    """A random charge in P0: radical independent and vanishing on no root."""
    while True:
        z0, z = random_charge(rng, curve)
        if oracle.orientation_det(z0, z, curve.marks) != 0 and \
                oracle.min_root_modulus_sq(z0, z, curve.marks, curve.roots) != 0:
            return z0, z


def vanishing_charge(rng, curve: Curve):
    """A radical-independent charge with Z(delta) = 0 for a chosen root.

    delta = c pt + w0 + m cycle with w0 at the middle of the lexicographic
    root order, so an early exit saves about half of a scan.  One component
    is solved so that Z(delta) = 0.
    """
    w0 = curve.roots[len(curve.roots) // 2]
    while True:
        c, m = rng.randint(-3, 3), rng.randint(-3, 3)
        ranks = [w + m * k for w, k in zip(w0, curve.marks)]
        z0, z = random_charge(rng, curve)
        j = next(t for t, r in enumerate(ranks) if r)
        rest = [(ranks[t], z[t]) for t in range(len(z)) if t != j]
        z[j] = tuple(-(c * z0[s] + sum(r * zt[s] for r, zt in rest)) / ranks[j] for s in (0, 1))
        if oracle.orientation_det(z0, z, curve.marks) != 0:
            return z0, z


def degenerate_charge(rng, curve: Curve):
    """A charge with Z(cycle) parallel to z0: the affine component is solved."""
    while True:
        z0, z = random_charge(rng, curve)
        if z0 != (0, 0):
            break
    lam = Fraction(rng.choice([-1, 1]) * rng.randint(1, 12), rng.randint(1, 12))
    a = curve.affine
    rest = [(curve.marks[t], z[t]) for t in range(len(z)) if t != a]
    z[a] = tuple(lam * z0[s] - sum(k * zt[s] for k, zt in rest) for s in (0, 1))
    return z0, z


LEVEL = Fraction(1, 20)


def walk_charge(rng, curve: Curve, target: int, tolerance: float = 0.02):
    """A normalized plus charge whose chamber walk has about ``target`` steps.

    Imaginary parts have denominator 97 and get a random direction; the
    affine component has denominator 100 and is fitted so the level
    Im Z(cycle) is within 1/200 of 1/20.  Real parts are in [-3, 3] with
    denominator 100, so every charge has common denominator 9700.  The
    spread is rescaled until the walk length, counted exactly by
    ``oracle.walk_length``, is within ``tolerance`` of the target.  Charges
    with a root of zero imaginary part are rejected: for (c, m) solving
    c z0 + m Z(cycle) = -Z(w0), that is an integral m, and then the charge
    either vanishes on a root (c integral too) or ends its walk on a wall.
    """
    a = curve.affine
    n = curve.obj.n
    while True:
        direction = [Fraction(rng.randint(-1000, 1000), 1000) for _ in range(n)]
        scale = Fraction(2)
        for _ in range(8):
            y = [Fraction(round(scale * direction[j] * 97), 97) for j in range(n)]
            rest = sum(curve.marks[j] * y[j] for j in range(n) if j != a)
            y[a] = Fraction(round((LEVEL - rest) * 100), 100)
            length = oracle.walk_length(y, curve.marks, curve.roots)
            if length is None:
                break
            if abs(length - target) <= tolerance * target:
                re = [Fraction(rng.randint(-300, 300), 100) for _ in range(n)]
                return (Fraction(-1), Fraction(0)), list(zip(re, y)), length
            scale = scale * Fraction(target, max(length, 1))


# ---------------------------------------------------------------- workloads

@dataclass
class Item:
    curve: Curve
    kind: str
    z0: tuple = None
    z: list = None
    zc: CentralCharge = None
    extra: dict = field(default_factory=dict)


class Workload:
    """One workload: ``setup`` builds the pool, ``op`` is the timed call."""

    name = ""
    # op_tail_ms is this percentile of the slots' mean latencies.  It is
    # fixed per workload, so every commit reports the same percentile.
    TAIL_PCT = 75

    def __init__(self, root: Path, tiny: bool = False):
        self.root = root
        self.tiny = tiny
        self.curves: dict[str, Curve] = {}

    def curve(self, label: str) -> Curve:
        if label not in self.curves:
            self.curves[label] = Curve.build(label)
        return self.curves[label]

    def setup(self, seed: int):
        """Clear caches, build curves and inputs; return (pool, warm item)."""
        clear_library_caches()
        self.curves = {}
        pool = self.make_pool(random.Random(f"{self.name}:{seed}"))
        return pool, self.warm_item(pool)

    def make_pool(self, rng):
        raise NotImplementedError

    def warm_item(self, pool):
        """The input of the one untimed op in set-up: the cheapest slot."""
        return pool[0]

    def op(self, item):
        raise NotImplementedError

    def canonical(self, out) -> str:
        raise NotImplementedError

    def verify(self, item, out) -> str | None:
        """An error message when the output is wrong, else None."""
        raise NotImplementedError

    def replay_op(self, item):
        """The op as replayed in-process by the traced run."""
        return self.op(item)

    def finish(self, traced: bool) -> tuple[dict, int, int]:
        """Work done once after the timed loop: (extras, attempted, failed)."""
        return {}, 0, 0

    def counts(self, out) -> dict:
        """Work counts of one op's output, summed by the harness."""
        return {}

    def input_text(self, item) -> str:
        return repr((item.z0, item.z, item.extra))

    in_children = False  # True when the ops run in child processes


class CertifyLarge(Workload):
    """membership, plus support_form on valid charges, on large curves.

    The pool has 8 valid charges, one vanishing (on IStar_8) and one
    degenerate (on I_20), two on each curve.  A pass over it takes about a
    quarter of a run, so each charge's mean latency spans three to five
    moments of the run, which damps the machine's drift.  This spread less
    from run to run than two passes over twice as many charges.
    """

    name = "certify_large"
    SLOTS = (
        ("IVStar", "normal"), ("IIIStar", "normal"), ("IIStar", "normal"),
        ("IStar_8", "normal"), ("I_20", "normal"), ("IVStar", "normal"),
        ("IIIStar", "normal"), ("IIStar", "normal"), ("IStar_8", "vanishing"),
        ("I_20", "degenerate"),
    )
    TINY_SLOTS = (("IVStar", "normal"), ("IVStar", "vanishing"), ("IVStar", "degenerate"))
    MAKERS = {"normal": valid_charge, "vanishing": vanishing_charge, "degenerate": degenerate_charge}

    def make_pool(self, rng):
        pool = []
        for label, kind in self.TINY_SLOTS if self.tiny else self.SLOTS:
            curve = self.curve(label)
            roots.fundamental_roots(curve.obj)
            z0, z = self.MAKERS[kind](rng, curve)
            pool.append(Item(curve, kind, z0, z, _to_charge(z0, z)))
        return pool

    def op(self, item):
        report = charge.membership(item.curve.obj, item.zc)
        form = charge.support_form(item.curve.obj, item.zc) if report.in_p0 else None
        return report, form

    def canonical(self, out):
        report, form = out
        return json.dumps({"membership": report.to_dict(),
                           "support_form": None if form is None else form.to_dict()},
                          sort_keys=True)

    def verify(self, item, out):
        report, form = out
        curve = item.curve
        det = oracle.orientation_det(item.z0, item.z, curve.marks)
        if det == 0:
            if item.kind != "degenerate" and item.kind != "normal":
                return "unexpected degenerate charge"
            if (report.in_p0, report.independent, report.vanishing, report.component.value,
                    report.min_modulus_sq, form) != (False, False, None, "not_in_p0", None, None):
                return f"degenerate charge misreported: {report.to_dict()}"
            return None
        if item.kind == "degenerate":
            return "degenerate slot generated an independent charge"
        msq = oracle.min_root_modulus_sq(item.z0, item.z, curve.marks, curve.roots)
        if msq == 0:
            w = report.vanishing
            if report.in_p0 or not report.independent or w is None or form is not None \
                    or report.component.value != "not_in_p0" or report.min_modulus_sq is not None:
                return f"vanishing charge misreported: {report.to_dict()}"
            if oracle.pairing(curve.gram, w.ranks, w.ranks) != -2:
                return f"witness {w.to_dict()} is not a root"
            if oracle.value(item.z0, item.z, w.chi, w.ranks) != (0, 0):
                return f"witness {w.to_dict()} does not vanish"
            return None
        if item.kind == "vanishing":
            return "vanishing slot generated a valid charge"
        component = "plus" if det < 0 else "minus"
        if (report.in_p0, report.independent, report.vanishing, report.component.value) != \
                (True, True, None, component):
            return f"valid charge misreported: {report.to_dict()}"
        if report.min_modulus_sq != msq:
            return f"M^2 {report.min_modulus_sq} != {msq}"
        return self._verify_form(item, form, msq)

    @staticmethod
    def _verify_form(item, form, msq):
        if form is None:
            return "valid charge without a support form"
        gram = item.curve.gram
        vals = [item.z0] + list(item.z)
        scale = 2 / msq
        dim = len(vals)
        for a in range(dim):
            for b in range(dim):
                g = gram[a - 1][b - 1] if a and b else 0
                want = g + scale * (vals[a][0] * vals[b][0] + vals[a][1] * vals[b][1])
                if form.matrix[a][b] != want:
                    return f"support form entry ({a},{b}) is {form.matrix[a][b]}, expected {want}"
        pivots = form.kernel_pivots
        if len(pivots) != dim - 2 or not all(p > 0 for p in pivots):
            return f"kernel pivots do not certify definiteness: {pivots}"
        return None


class ReduceWalk(Workload):
    """reduce_to_fundamental on seeded walks of fixed lengths.

    Lengths grow geometrically from 100 to 2000 steps over the slots, and
    the curves take turns, so the latencies spread evenly instead of forming
    clusters whose edges would make the median and the tail jumpy.
    """

    name = "reduce_walk"
    TAIL_PCT = 93
    SLOTS = tuple((("IV", "IStar_0", "I_8", "IVStar")[i % 4], round(100 * 20 ** (i / 35)))
                  for i in range(36))
    TINY_SLOTS = (("IV", 60), ("IStar_0", 60))

    def make_pool(self, rng):
        pool = []
        for label, target in self.TINY_SLOTS if self.tiny else self.SLOTS:
            curve = self.curve(label)
            roots.fundamental_roots(curve.obj)
            z0, z, length = walk_charge(rng, curve, target)
            pool.append(Item(curve, "walk", z0, z, _to_charge(z0, z), {"length": length}))
        return pool

    def op(self, item):
        return chamber.reduce_to_fundamental(item.curve.obj, item.zc)

    def canonical(self, out):
        return json.dumps(out.to_dict(), sort_keys=True)

    def counts(self, out):
        return {"walk_steps": len(out.word.generators)}

    def verify(self, item, out):
        word = [(g.i, g.k) for g in out.word.generators]
        if not out.terminated:
            return "walk did not terminate"
        if len(word) != item.extra["length"]:
            return f"walk took {len(word)} steps, expected {item.extra['length']}"
        if len(out.steps) != len(word) or (out.steps and out.steps[-1].charge_after != out.final):
            return "steps do not match the word"
        final = [(v.re, v.im) for v in out.final.z]
        replayed, bad_step = oracle.replay_walk(item.curve.gram, item.z, word)
        if bad_step is not None:
            return f"step {bad_step} of the word breaks the greedy rule"
        if replayed != final:
            return "replaying the word does not give the final charge"
        if any(im < 0 for _, im in final):
            return "final charge is outside the closed chamber"
        marks = item.curve.marks
        if sum(m * im for m, (_, im) in zip(marks, final)) != \
                sum(m * im for m, (_, im) in zip(marks, item.z)):
            return "level Im Z(cycle) changed"
        return None


class RootsBox(Workload):
    """enumerate_roots_in_box on six fixed boxes; the seed orders them."""

    name = "roots_box"
    BOXES = (("I_8", 6), ("IStar_4", 6), ("IIStar", 4), ("I_20", 2), ("IStar_12", 2), ("IStar_20", 1))
    TINY_BOXES = (("IV", 3), ("IStar_0", 2))

    def make_pool(self, rng):
        boxes = list(self.TINY_BOXES if self.tiny else self.BOXES)
        rng.shuffle(boxes)
        return [Item(self.curve(label), "box", extra={"bound": bound}) for label, bound in boxes]

    def warm_item(self, pool):
        # the cheapest box whatever the seeded order, so set-up does not vary by seed
        return min(pool, key=lambda it: (len(it.curve.roots), it.extra["bound"]))

    def op(self, item):
        return roots.enumerate_roots_in_box(item.curve.obj, item.extra["bound"])

    def canonical(self, out):
        return json.dumps([[v.chi, list(v.ranks)] for v in out])

    def counts(self, out):
        return {"box_roots": len(out)}

    def verify(self, item, out):
        bound = item.extra["bound"]
        marks = item.curve.marks
        want = set()
        for w in item.curve.roots:
            for m in range(-bound - 2, bound + 3):
                r = tuple(x + m * k for x, k in zip(w, marks))
                if max(abs(x) for x in r) <= bound:
                    want.add(r)
        got = [v.ranks for v in out]
        if any(v.chi != 0 for v in out):
            return "box root with chi != 0"
        if got != sorted(want):
            return f"box has {len(got)} roots, expected {len(want)} (or wrong order)"
        return None


class CliSmall(Workload):
    """One fresh ``python -m kodlat.cli`` process per request, small curves.

    Every verb appears, a few with --approx, plus malformed requests that
    must give the coded JSON error.  Batch files run after the timed loop.
    """

    name = "cli_small"
    TAIL_PCT = 94
    SMALL = ("I_2", "III", "IV", "mI_2_3", "IStar_0")
    in_children = True

    def __init__(self, root, tiny=False):
        super().__init__(root, tiny)
        self.env = dict(os.environ, PYTHONPATH=str(root / "src"))
        self.batch_dir = root / "perfbench" / "results" / "batch"
        self.expected: dict[int, tuple] = {}
        self.batches: list = []

    def _req(self, argv, kind="plain", rc=0, code=None, curve=None, **extra):
        return Item(curve, kind, extra=dict(extra, argv=argv, rc=rc, code=code))

    @staticmethod
    def _charge_argv(z0, z):
        return ["--z0", _qc_arg(z0), "--z", *(_qc_arg(p) for p in z)]

    def make_pool(self, rng):
        c = {label: self.curve(label) for label in self.SMALL + ("IIStar", "I_20")}
        self.expected = {}
        req = self._req
        pool = [req(["catalog"])]
        if not self.tiny:
            pool += [
                req(["catalog", "--curve", "mI:2:3"]),
                req(["catalog", "--curve", "IStar_0", "--approx"]),
                req(["roots", "--curve", "IV"]),
            ]
            for label in ("IStar_0", "IIStar", "I_20"):
                pool.append(req(["roots", "--curve", label, "--count-only"], "count", curve=c[label]))
            pool.append(req(["roots", "--curve", "I_2", "--bound", "3", "--count-only"]))
            for label in ("IV", "mI_2_3"):
                v = [rng.randint(-5, 5) for _ in range(c[label].obj.n + 1)]
                w = [rng.randint(-5, 5) for _ in range(c[label].obj.n + 1)]
                pool.append(req(["pair", "--curve", label,
                                 "--v", json.dumps({"chi": v[0], "ranks": v[1:]}),
                                 "--w", json.dumps({"chi": w[0], "ranks": w[1:]})],
                                "pair", curve=c[label], v=v[1:], w=w[1:]))
        for label in (("IV",) if self.tiny else self.SMALL):
            z0, z = random_charge(rng, c[label])
            approx = ["--approx"] if label == "IV" else []
            pool.append(req(["check", "--curve", label, *self._charge_argv(z0, z), *approx],
                            "check", curve=c[label], z0=z0, z=z))
        walks = (("IV", 40),) if self.tiny else (("IV", 40), ("III", 40))
        for label, target in walks:
            z0, z, length = walk_charge(rng, c[label], target)
            approx = ["--approx"] if label == "III" else []
            pool.append(req(["reduce", "--curve", label, *self._charge_argv(z0, z), *approx],
                            "reduce", curve=c[label], z=z, length=length))
        if not self.tiny:
            word = ";".join(f"T({rng.randint(1, 3)},{rng.randint(-3, 3)})" for _ in range(4))
            cls = {"chi": rng.randint(-5, 5), "ranks": [rng.randint(-5, 5) for _ in range(3)]}
            pool.append(req(["twist", "--curve", "IV", "--word", word, "--class", json.dumps(cls)]))
            z0, z = random_charge(rng, c["I_2"])
            word = ";".join(f"T({rng.randint(1, 2)},{rng.randint(-3, 3)})" for _ in range(3))
            pool.append(req(["twist", "--curve", "I_2", "--word", word, *self._charge_argv(z0, z)]))
            za, zb = self._segment(rng, 3)
            pool.append(req(["walls", "--curve", "IV", "--za", *map(_qc_arg, za),
                             "--zb", *map(_qc_arg, zb)]))
            pool.append(req(["jh", "--curve", "IStar_0", "--i", str(rng.randint(1, 5)),
                             "--k", str(rng.randint(-4, 4))]))
        z0, z = random_charge(rng, c["IV"])
        pool += [
            req(["check", "--curve", "IV", "--z0", "1/0,1", "--z", *map(_qc_arg, z)],
                rc=2, code="ParseError"),
            req(["check", "--curve", "IX", *self._charge_argv(z0, z)], rc=1, code="InvalidParams"),
        ]
        if not self.tiny:
            minus = [(x, -y) for x, y in walk_charge(rng, c["IV"], 40)[1]]
            pool += [
                req(["check", "--curve", "IV", *self._charge_argv(z0, z[:2])],
                    rc=1, code="DimensionMismatch"),
                req(["jh", "--curve", "IV", "--i", "7", "--k", "0"], rc=1, code="IndexOutOfRange"),
                req([], rc=2, code="ParseError"),
                req(["reduce", "--curve", "IV", *self._charge_argv((-1, 0), minus)],
                    rc=1, code="NotPlusComponent"),
            ]
        for idx, item in enumerate(pool):
            item.extra["id"] = idx
        self.batches = self._write_batches(rng, c)
        return pool

    @staticmethod
    def _segment(rng, n):
        """Normalized endpoints whose wall crossings avoid corners."""
        while True:
            za = [_nonzero_im(rng) for _ in range(n)]
            zb = [_nonzero_im(rng) for _ in range(n)]
            ok = True
            for a, b in zip(za, zb):
                if (a[1] > 0) != (b[1] > 0):
                    t = a[1] / (a[1] - b[1])
                    if (a[0] + t * (b[0] - a[0])).denominator == 1:
                        ok = False
            if ok:
                return za, zb

    def _write_batches(self, rng, c):
        self.batch_dir.mkdir(parents=True, exist_ok=True)
        specs = (("check", "IV", 8), ("check", "IStar_0", 8), ("reduce", "IV", 6), ("reduce", "I_2", 6))
        if self.tiny:
            specs = (("check", "IV", 2), ("reduce", "IV", 2))
        batches = []
        for verb, label, count in specs:
            lines, data = [], []
            for _ in range(count):
                if verb == "check":
                    z0, z = random_charge(rng, c[label])
                    length = None
                else:
                    z0, z, length = walk_charge(rng, c[label], 40)
                lines.append(json.dumps({"z0": [str(z0[0]), str(z0[1])],
                                         "z": [[str(x), str(y)] for x, y in z]}))
                data.append((z0, z, length))
            path = self.batch_dir / f"{verb}_{label}.jsonl"
            path.write_text("\n".join(lines) + "\n", encoding="utf-8")
            batches.append(Item(c[label], "batch", extra={
                "argv": [verb, "--curve", label, "--input", str(path)], "rc": 0, "code": None,
                "verb": verb, "data": data, "id": f"batch:{verb}:{label}"}))
        return batches

    def op(self, item):
        proc = subprocess.run([sys.executable, "-m", "kodlat.cli", *item.extra["argv"]],
                              cwd=self.root, env=self.env, stdin=subprocess.DEVNULL,
                              capture_output=True, timeout=120)
        return proc.returncode, proc.stdout

    def replay_op(self, item):
        clear_library_caches()
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            rc = cli.main(list(item.extra["argv"]))
        return rc, buf.getvalue().encode("utf-8")

    def canonical(self, out):
        return json.dumps([out[0], out[1].decode("utf-8", "replace")])

    def counts(self, out):
        return {"stdout_bytes": len(out[1])}

    def input_text(self, item):
        return " ".join(item.extra["argv"])

    def verify(self, item, out):
        rc, raw = out
        ex = item.extra
        if rc != ex["rc"]:
            return f"{ex['argv']}: exit status {rc}, expected {ex['rc']}"
        try:
            text = raw.decode("utf-8")
            payload = json.loads(text)
        except ValueError:
            return f"{ex['argv']}: stdout is not one JSON document"
        if text.count("\n") != 1 or not text.endswith("\n"):
            return f"{ex['argv']}: stdout is not a single line"
        if ex["id"] not in self.expected:
            self.expected[ex["id"]] = self.replay_op(item)
        if (rc, raw) != self.expected[ex["id"]]:
            return f"{ex['argv']}: output differs from the in-process result"
        if ex["code"] is not None:
            if set(payload) != {"code", "message"} or payload["code"] != ex["code"]:
                return f"{ex['argv']}: expected error {ex['code']}, got {payload}"
            return None
        if isinstance(payload, dict) and set(payload) == {"exact", "approx"}:
            payload = payload["exact"]
        return self._verify_payload(item, payload)

    def _verify_payload(self, item, payload):
        ex = item.extra
        curve = item.curve
        if item.kind == "count":
            if payload != {"fundamental_count": len(curve.roots)}:
                return f"{ex['argv']}: {payload}, expected {len(curve.roots)} roots"
        elif item.kind == "pair":
            want = oracle.pairing(curve.gram, ex["v"], ex["w"])
            if payload != {"value": want}:
                return f"{ex['argv']}: {payload}, expected {want}"
        elif item.kind == "check":
            return _verify_check_payload(curve, ex["z0"], ex["z"], None, payload)
        elif item.kind == "reduce":
            return _verify_reduce_payload(curve, None, ex["z"], ex["length"], payload)
        elif item.kind == "batch":
            if not isinstance(payload, list) or len(payload) != len(ex["data"]):
                return f"{ex['argv']}: expected {len(ex['data'])} results"
            check = _verify_check_payload if ex["verb"] == "check" else _verify_reduce_payload
            for (z0, z, length), line in zip(ex["data"], payload):
                error = check(curve, z0, z, length, line)
                if error is not None:
                    return f"{ex['argv']}: {error}"
        return None

    def finish(self, traced):
        """Run the batch files; in the traced run also time bare start-up."""
        extras, attempted, failed = {}, 0, 0
        lines = 0
        wall = 0.0
        for batch in self.batches:
            t0 = time.perf_counter()
            out = self.op(batch)
            wall += time.perf_counter() - t0
            lines += len(batch.extra["data"])
            attempted += 1
            error = self.verify(batch, out)
            if error is not None:
                failed += 1
                print(error, file=sys.stderr)
        extras["cli.batch_lines_per_s"] = lines / wall
        if traced:
            bare = statistics.median(self._time_process("pass") for _ in range(5))
            imp = statistics.median(self._time_process("import kodlat.cli") for _ in range(5))
            extras["cli.interpreter_ms"] = bare * 1e3
            extras["cli.import_ms"] = (imp - bare) * 1e3
        return extras, attempted, failed

    def _time_process(self, code: str) -> float:
        t0 = time.perf_counter()
        subprocess.run([sys.executable, "-c", code], cwd=self.root, env=self.env,
                       stdin=subprocess.DEVNULL, capture_output=True, timeout=120, check=True)
        return time.perf_counter() - t0


def _nonzero_im(rng):
    while True:
        p = _pair(rng)
        if p[1] != 0:
            return p


def _verify_check_payload(curve, z0, z, _length, payload):
    det = oracle.orientation_det(z0, z, curve.marks)
    if det == 0:
        want = {"in_p0": False, "independent": False, "vanishing": None,
                "component": "not_in_p0", "min_modulus_sq": None}
        return None if payload == want else f"degenerate check payload {payload}"
    msq = oracle.min_root_modulus_sq(z0, z, curve.marks, curve.roots)
    if msq == 0:
        w = payload.get("vanishing")
        if payload.get("in_p0") is not False or not w:
            return f"vanishing check payload {payload}"
        if oracle.pairing(curve.gram, w["ranks"], w["ranks"]) != -2 or \
                oracle.value(z0, z, w["chi"], w["ranks"]) != (0, 0):
            return f"bad vanishing witness {w}"
        return None
    want = {"in_p0": True, "independent": True, "vanishing": None,
            "component": "plus" if det < 0 else "minus", "min_modulus_sq": str(msq)}
    return None if payload == want else f"check payload {payload}, expected {want}"


def _verify_reduce_payload(curve, _z0, z, length, payload):
    word = []
    for g in payload["word"]:
        i, k = g[2:-1].split(",")
        word.append((int(i), int(k)))
    if len(word) != length or not payload["terminated"]:
        return f"reduce took {len(word)} steps, expected {length}"
    final = [(Fraction(x), Fraction(y)) for x, y in payload["final"]["z"]]
    replayed, bad_step = oracle.replay_walk(curve.gram, z, word)
    if bad_step is not None or replayed != final:
        return "reduce word does not replay greedily to the final charge"
    if payload["verdict"]["position"] != "inside":
        return f"reduce verdict {payload['verdict']}"
    return None


WORKLOADS = {cls.name: cls for cls in (CertifyLarge, ReduceWalk, CliSmall, RootsBox)}
