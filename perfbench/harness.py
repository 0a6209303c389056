"""Workloads, set-up, output checks and metrics of the biomm benchmark.

biomm is driven only through its public functions, from one caller thread.
All inputs come from ``biomm.synth`` and are built from the workload seed
before any timing starts. See README.md in this directory for why each
workload exists and which end-to-end metric each layer metric should move.
"""

from __future__ import annotations

import hashlib
import resource
import statistics
from dataclasses import dataclass
from pathlib import Path
from time import perf_counter

import numpy as np

from biomm import pipeline, synth
from biomm.errors import BiommError, FormatError

import tracer

WORKLOADS = ("enroll-c20", "identify-c20", "verify-c20")

# name -> unit; BENCHMARK.json lists the same metrics. An "op" is one
# operation of the workload's loop: a fit+save+load, an identify or a verify.
END_TO_END = {
    "setup_s": "s",
    "op_p90_ms": "ms",
    "rank1_fused": "ratio",
    "unknown_reject_rate": "ratio",
    "genuine_accept_rate": "ratio",
    "impostor_reject_rate": "ratio",
    "model_bytes": "bytes",
    "peak_rss_mb": "MB",
}

PER_LAYER = {
    **{
        f"{name}.{what}": unit
        for name in tracer.TRACED
        for what, unit in (("calls", "count/op"), ("s", "s/op"), ("self_s", "s/op"))
    },
    "svm.support_vectors": "count",
    "quality.face_rank1": "ratio",
    "quality.voice_rank1": "ratio",
    "trace.op_s": "s/op",
    "trace.untraced_op_s": "s/op",
    "trace.overhead": "ratio",
    "trace.spans": "count/op",
}


@dataclass(frozen=True)
class Scale:
    """Input sizes of one run. FULL is what the benchmark measures."""

    galleries: int = 3         # independently seeded galleries, one set-up each
    clients: int = 20
    faces: int = 4             # 16x16 images per enrolled client
    utterances: int = 4        # 1 s at 8 kHz per enrolled client
    unknown_clients: int = 10  # prototypes/profiles that are never enrolled
    identify_probes: int = 60  # per gallery: genuine and never-enrolled
    verify_probes: int = 60    # per gallery: genuine and impostor claims
    check_probes: int = 5      # per gallery and mode: must decide alike after reload


FULL = Scale()


@dataclass(frozen=True)
class Probe:
    face: object
    voice: object
    person: str | None        # who presents the probe; None: never enrolled
    claim: str | None = None  # claimed identity (verification only)


@dataclass(frozen=True)
class Inputs:
    gallery: dict
    identify: tuple
    verify: tuple


def gallery_seed(seed: int, g: int) -> int:
    return int(np.random.SeedSequence([seed, g]).generate_state(1)[0])


def make_inputs(seed: int, scale: Scale) -> Inputs:
    """One gallery and its probe pools, all drawn from one generator seeded by `seed`."""
    gallery, prototypes, profiles, rng = synth.make_enrollment_data(
        scale.clients, scale.faces, scale.utterances, seed=seed
    )
    names = list(gallery)
    unknown_faces = synth.make_face_prototypes(scale.unknown_clients, rng)
    unknown_voices = synth.make_voice_profiles(scale.unknown_clients, rng)

    def genuine(c: int, claim=None) -> Probe:
        return Probe(
            synth.render_face(prototypes[c], rng),
            synth.synth_utterance(profiles[c], rng),
            names[c],
            claim,
        )

    identify = []
    for i in range(scale.identify_probes):
        if i % 5 == 4:  # one probe in five comes from someone never enrolled
            u = (i // 5) % scale.unknown_clients
            identify.append(Probe(
                synth.render_face(unknown_faces[u], rng),
                synth.synth_utterance(unknown_voices[u], rng),
                None,
            ))
        else:
            identify.append(genuine((i - i // 5) % scale.clients))

    verify = []
    for i in range(scale.verify_probes):
        k = i // 2
        a = k % scale.clients
        if i % 2 == 0:  # genuine claim
            verify.append(genuine(a, names[a]))
        else:  # impostor: client a claims to be client b
            b = (a + 1 + (k // scale.clients) % (scale.clients - 1)) % scale.clients
            verify.append(genuine(a, names[b]))
    return Inputs(gallery, tuple(identify), tuple(verify))


class Ledger:
    """Operations attempted and failed; a failure is a biomm error or a wrong output."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.failures: list[str] = []

    def record(self, ok: bool, what: str) -> None:
        self.attempted += 1
        if not ok:
            self.failed += 1
            if len(self.failures) < 20:
                self.failures.append(what)

    def call(self, what: str, fn):
        """fn() or None; a raised biomm error is a failed operation."""
        try:
            return fn()
        except BiommError as exc:
            self.record(False, f"{what}: {type(exc).__name__}: {exc}")
            return None


def fit_save_load(gallery: dict, path: Path):
    """The write path: fit, save and reload.

    Returns both models and the (start, end) interval of each of the three steps.
    """
    t0 = perf_counter()
    model = pipeline.enroll_and_fit(gallery)
    t1 = perf_counter()
    pipeline.save_model(model, path)
    t2 = perf_counter()
    loaded = pipeline.load_model(path)
    t3 = perf_counter()
    return model, loaded, ((t0, t1), (t1, t2), (t2, t3))


def _digest(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def _identify(model, p: Probe):
    return pipeline.identify(model, p.face, p.voice)


def _verify(model, p: Probe):
    return pipeline.verify(model, p.face, p.voice, p.claim)


def _rejects_as_format_error(path: Path) -> bool:
    try:
        pipeline.load_model(path)
    except FormatError:
        return True
    except Exception:  # any other outcome of loading a damaged file fails the check
        return False
    return False


def check_reload(model, loaded, inputs: Inputs, count: int, ledger: Ledger) -> None:
    """The reloaded model must decide exactly as the fitted one."""
    for what, serve, probes in (("identify", _identify, inputs.identify),
                                ("verify", _verify, inputs.verify)):
        for i, p in enumerate(probes[:count]):
            same = ledger.call(f"reload check {what} {i}",
                               lambda: serve(model, p) == serve(loaded, p))
            if same is not None:
                ledger.record(same, f"reloaded model decides {what} probe {i} differently")


def check_model_file(path: Path, seed: int, work_dir: Path, ledger: Ledger) -> None:
    """A copy with one byte flipped and a truncated copy must both raise FormatError."""
    data = path.read_bytes()
    rng = np.random.default_rng(seed)
    flipped = bytearray(data)
    pos = int(rng.integers(len(data)))
    flipped[pos] ^= 0x01  # keeps ASCII text ASCII, so only the CRC can catch it
    cut = int(rng.integers(len(data) - 1))  # drops at least two bytes
    for label, body in (("byte flip", bytes(flipped)), ("truncation", data[:cut])):
        damaged = work_dir / "damaged.txt"
        damaged.write_bytes(body)
        ledger.record(_rejects_as_format_error(damaged), f"{label} not rejected with FormatError")


def _closed_loop(op, count: int, seconds: float) -> int:
    """Issue op(i) back to back until `seconds` have passed. Returns the op count."""
    n = 0
    start = perf_counter()
    while n == 0 or perf_counter() - start < seconds:
        op(n % count)
        n += 1
    return n


def _traced_loop(op, count: int, seconds: float, t: tracer.Tracer):
    """Like _closed_loop, but every other operation runs traced.

    Alternating keeps both kinds under the same machine load, so their
    difference is the tracing overhead. The parity flips with each pass over
    the probes, so every probe is traced as often as not. Returns
    {traced: [ops, wall_s]}; a traced wall includes patching and unpatching.
    """
    walls = {False: [0, 0.0], True: [0, 0.0]}
    n = 0
    start = perf_counter()
    while n < 2 or perf_counter() - start < seconds:
        i = n % count
        traced = (n + n // count) % 2 == 1
        t0 = perf_counter()
        if traced:
            with t:
                t.span(lambda: op(i))
        else:
            op(i)
        walls[traced][0] += 1
        walls[traced][1] += perf_counter() - t0
        n += 1
    return walls


def _rate(hits: int, total: int) -> float:
    return hits / total if total else float("nan")


def quality(identified, verified) -> dict:
    """Accuracy figures from (probe, decision) pairs; a failed probe has decision None."""
    genuine = [(p, d) for p, d in identified if p.person is not None]
    unknown = [d for p, d in identified if p.person is None]
    claims = [(p.claim == p.person, d) for p, d in verified]
    return {
        "rank1_fused": _rate(sum(d is not None and d.client_id == p.person for p, d in genuine), len(genuine)),
        "quality.face_rank1": _rate(sum(d is not None and d.face_id == p.person for p, d in genuine), len(genuine)),
        "quality.voice_rank1": _rate(sum(d is not None and d.voice_id == p.person for p, d in genuine), len(genuine)),
        "unknown_reject_rate": _rate(sum(d is not None and not d.accepted for d in unknown), len(unknown)),
        "genuine_accept_rate": _rate(sum(d is not None and d.accepted for g, d in claims if g),
                                     sum(g for g, _ in claims)),
        "impostor_reject_rate": _rate(sum(d is not None and not d.accepted for g, d in claims if not g),
                                      sum(not g for g, _ in claims)),
    }


def _latency(durations_s) -> dict:
    ms = np.asarray(durations_s) * 1e3
    return {
        "p50_ms": float(np.percentile(ms, 50)),
        "p90_ms": float(np.percentile(ms, 90)),
        "per_s": 1e3 * len(ms) / float(ms.sum()),
        "samples": len(ms),
    }


def run(workload: str, seed: int, seconds: float, trace: bool, work_dir: Path,
        scale: Scale = FULL) -> dict:
    """One benchmark run. Returns the result line's fields plus details."""
    if workload not in WORKLOADS:
        raise ValueError(f"unknown workload {workload!r}; choose from {', '.join(WORKLOADS)}")
    seeds = [gallery_seed(seed, g) for g in range(scale.galleries)]
    galleries = [make_inputs(s, scale) for s in seeds]
    ledger = Ledger()

    # Set-up: a gallery can be served once its model is fitted and loaded
    # back. Each set-up is checked: the reloaded model decides as the fitted
    # one, and damaged copies of its file are refused.
    steps = {"fit_s": [], "save_s": [], "load_s": []}  # (start, end) intervals
    setups, sizes, loaded = [], [], []  # setups: (fit, save, load) intervals
    for g, inputs in enumerate(galleries):
        path = work_dir / f"model{g}.txt"
        out = ledger.call(f"set-up {g}", lambda: fit_save_load(inputs.gallery, path))
        if out is None:
            continue
        ledger.record(True, "set-up")
        model, reloaded, intervals = out
        for key, interval in zip(steps, intervals):
            steps[key].append(interval)
        setups.append(intervals)
        sizes.append(path.stat().st_size)
        check_reload(model, reloaded, inputs, scale.check_probes, ledger)
        check_model_file(path, seeds[g], work_dir, ledger)
        loaded.append((inputs, reloaded, _digest(path)))
    if not loaded:
        raise RuntimeError("every set-up failed; there is no model to serve")

    # One pass over every probe pool gives the quality figures and the
    # reference decision each probe must get again in the loop.
    passes = {}
    for what, serve in (("identify", _identify), ("verify", _verify)):
        served, intervals = [], []
        for inputs, model, _ in loaded:
            for i, p in enumerate(getattr(inputs, what)):
                t0 = perf_counter()
                d = ledger.call(f"{what} probe {i}", lambda: serve(model, p))
                intervals.append((t0, perf_counter()))
                if d is not None:
                    ledger.record(True, what)
                served.append((model, p, d))
        passes[what] = (served, intervals)
    q = quality([(p, d) for _, p, d in passes["identify"][0]],
                [(p, d) for _, p, d in passes["verify"][0]])

    loop_intervals: list[tuple] = []

    def serve_op(serve, what):
        served = passes[what][0]

        def op(i):
            model, p, reference = served[i]
            t0 = perf_counter()
            d = ledger.call(f"{what} probe {i}", lambda: serve(model, p))
            loop_intervals.append((t0, perf_counter()))
            if d is not None:
                ledger.record(d == reference, f"{what} probe {i} decided differently")
        return op, len(served)

    def enroll_op(i):
        inputs, _, digest = loaded[i]
        path = work_dir / "refit.txt"
        out = ledger.call("enroll", lambda: fit_save_load(inputs.gallery, path))
        if out is None:
            return
        for key, interval in zip(steps, out[2]):
            steps[key].append(interval)
        loop_intervals.append((out[2][0][0], out[2][2][1]))
        # Same bytes as the set-up's file, whose reload was checked decision by decision.
        ledger.record(_digest(path) == digest, "refit wrote a different model file")

    if workload == "enroll-c20":
        op, count = enroll_op, len(loaded)
    else:
        op, count = serve_op(*((_identify, "identify") if workload == "identify-c20"
                               else (_verify, "verify")))

    details = {"samples": {}, "failures": ledger.failures}
    if trace:
        t = tracer.Tracer()
        walls = _traced_loop(op, count, seconds, t)
        (plain_ops, plain_wall), (traced_ops, traced_wall) = walls[False], walls[True]
        summary = t.summary()
        metrics = {}
        for name in tracer.TRACED:
            row = summary.get(name, {"calls": 0, "s": 0.0, "self_s": 0.0})
            for what in ("calls", "s", "self_s"):
                metrics[f"{name}.{what}"] = row[what] / traced_ops
        metrics.update({
            "svm.support_vectors": statistics.mean(
                sum(m.support_vectors.shape[1] for m in model.voice_svm.machines)
                for _, model, _ in loaded),
            "quality.face_rank1": q["quality.face_rank1"],
            "quality.voice_rank1": q["quality.voice_rank1"],
            "trace.op_s": traced_wall / traced_ops,
            "trace.untraced_op_s": plain_wall / plain_ops,
            "trace.overhead": (traced_wall / traced_ops) / (plain_wall / plain_ops) - 1.0,
            "trace.spans": len(t.span_name) / traced_ops,
        })
        units = PER_LAYER
        details["trace"] = {"ops": traced_ops, "wall_s": traced_wall, "spans": summary}
    else:
        loop_ops = _closed_loop(op, count, seconds)
        length = lambda interval: interval[1] - interval[0]
        if workload == "enroll-c20":  # every set-up is one more enroll operation
            loop_intervals += [(fit[0], load[1]) for fit, _, load in setups]
        op_stats = _latency([length(iv) for iv in loop_intervals])
        metrics = {
            "setup_s": statistics.median(length(fit) + length(load) for fit, _, load in setups),
            "op_p90_ms": op_stats["p90_ms"],
            **{k: v for k, v in q.items() if k in END_TO_END},
            "model_bytes": statistics.median(sizes),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        }
        units = END_TO_END
        # Reported, but too unsteady to compare run against run on a shared
        # machine: the median and mean of a bimodal latency, and timings
        # taken over too few samples or too short a stretch.
        details["other_timings"] = {
            "op_p50_ms": op_stats["p50_ms"],
            "op_per_s": op_stats["per_s"],
            **{key: statistics.median(map(length, ivs)) for key, ivs in steps.items()},
            **{f"pass_{what}_{k}": v for what in ("identify", "verify")
               for k, v in _latency([length(iv) for iv in passes[what][1]]).items()},
        }
        details["samples"] = {
            "setup_s": len(setups), "op": len(loop_intervals), "loop_ops": loop_ops,
            **{key: len(ivs) for key, ivs in steps.items()}, "galleries": len(loaded),
        }

    return {
        "correct": ledger.failed == 0,
        "attempted": ledger.attempted,
        "failed": ledger.failed,
        "metrics": {name: {"value": float(metrics[name]), "unit": unit}
                    for name, unit in units.items()},
        "details": details,
    }
