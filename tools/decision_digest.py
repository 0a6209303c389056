"""Digest every decision the benchmark's galleries give, to compare two checkouts.

    python3 tools/decision_digest.py --seeds 1 2 3

Run it from the root of a source checkout: biomm is imported from ./src
and the galleries come from ./perfbench/harness.py, as perfbench/run.py
does. For each seed it fits the benchmark's three galleries
(`harness.make_inputs` at `harness.gallery_seed(seed, g)`), saves and
reloads each model, and serves every identification and verification
probe from the fitted and from the reloaded model. It prints one line per
seed: the seed, the number of decisions (720 per seed at the benchmark's
scale), the sha256 over each decision's repr in serving order, the sha256
over the three model files, the sha256 over each decision's verdict fields
(VERDICT_FIELDS: no score), and the total bytes of the three model files.
Two checkouts that print the same line decide alike on those probes, to the
last bit of every score; two that print the same verdict digest give the
same verdicts and ids, though a score may differ in its last bits.
"""

from __future__ import annotations

import argparse
import hashlib
import os
import sys
import tempfile
from pathlib import Path

BLAS_ENV = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
VERDICT_FIELDS = ("mode", "claimed_id", "verdict", "client_id", "face_id", "voice_id")


def digest(seed: int, work_dir: Path) -> tuple:
    """(decision count, decision sha256, model file sha256, verdict sha256,
    model file bytes) of one seed."""
    import harness
    from biomm import pipeline

    decisions, models, verdicts = hashlib.sha256(), hashlib.sha256(), hashlib.sha256()
    count = model_bytes = 0
    for g in range(harness.FULL.galleries):
        inputs = harness.make_inputs(harness.gallery_seed(seed, g), harness.FULL)
        path = work_dir / f"model{g}.biomm"
        fitted, loaded, _ = harness.fit_save_load(inputs.gallery, path)
        data = path.read_bytes()
        models.update(data)
        model_bytes += len(data)
        for model in (fitted, loaded):
            served = [pipeline.identify(model, p.face, p.voice) for p in inputs.identify]
            served += [pipeline.verify(model, p.face, p.voice, p.claim) for p in inputs.verify]
            for d in served:
                decisions.update(repr(d).encode())
                verdicts.update(repr(tuple(getattr(d, f) for f in VERDICT_FIELDS)).encode())
            count += len(served)
    return count, decisions.hexdigest(), models.hexdigest(), verdicts.hexdigest(), model_bytes


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seeds", type=int, nargs="+", required=True)
    args = parser.parse_args(argv)

    # one BLAS thread, as the benchmark runs: a matrix product may round
    # differently when it is split across threads
    for var in BLAS_ENV:
        os.environ[var] = "1"
    root = Path.cwd().resolve()
    sys.path[:0] = [str(root / "src"), str(root / "perfbench")]
    import biomm

    if root / "src" not in Path(biomm.__file__).resolve().parents:
        print(f"biomm was imported from {biomm.__file__}, not from {root / 'src'}",
              file=sys.stderr)
        return 2
    with tempfile.TemporaryDirectory() as work_dir:
        for seed in args.seeds:
            print(seed, *digest(seed, Path(work_dir)), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
