"""Checks that a finished scenario run produced the right outputs.

The final-state check is an independent float64 recomputation written from
the documented training spec, not from ftdp's code:

- Random streams are Philox generators keyed by a SeedSequence of integers.
  Parameters: key (model_seed, 0); w1 is standard normal (din, dhid) over
  sqrt(din), then w2 is standard normal (dhid, dout) over sqrt(dhid), both
  rounded to float32; biases start at zero. The flat layout is w1, b1, w2,
  b2, row-major.
- The task map is key (data_seed, 0xFEED, 0), standard normal (din, dout)
  over sqrt(din), rounded to float32. The batch a replica reads at data
  cursor c is key (data_seed, 1, replica, c): inputs standard normal
  (micro_batch, din), then noise standard normal (micro_batch, dout), both
  rounded to float32; targets are inputs @ task_map + 0.05 * noise.
- The model is tanh(x @ w1 + b1) @ w2 + b2 with mean-squared-error loss.
- A ledger line "step,replica,cursor" says the replica committed the step
  after reading cursors cursor-R .. cursor-1, rank r reading cursor-R+r.
  The step's gradient is the sum of those batches' gradients over every
  replica in the ledger at that step, divided by (healthy * R).
- Momentum SGD: m = beta * m + g; p = p - lr * m, with the scenario's
  initial_lr and momentum_beta (defaults 0.05 and 0.9) and no lr
  intervention or decay.

The run computes in float32 where this replays in float64, so the final
state is compared by relative L2 error against TOLERANCE.
"""

from __future__ import annotations

import json
import os

import numpy as np

# Relative L2 error allowed between the run's final state and the replay.
# Observed errors are below 1e-5 on params and momentum (README.md); a
# wrong batch, scaling or member set moves them by far more than this.
TOLERANCE = 1e-4

_TASK_SALT = 0xFEED
_NOISE = 0.05


def _philox(*key: int) -> np.random.Generator:
    return np.random.Generator(np.random.Philox(np.random.SeedSequence(list(key))))


def replay(doc: dict, ledger: list[tuple[int, int, int]]) -> tuple[np.ndarray, np.ndarray]:
    """Final (params, momentum) in float64 after replaying the ledger."""
    topo = doc["topology"]
    din, dhid, dout = topo["model_dims"]
    mb, ranks = topo["micro_batch"], topo["ranks_per_replica"]
    tuning = doc.get("tuning", {})
    lr = tuning.get("initial_lr", 0.05)
    beta = tuning.get("momentum_beta", 0.9)
    model_seed, data_seed = doc["seeds"]["model"], doc["seeds"]["data"]

    rng = _philox(model_seed, 0)
    w1 = (rng.standard_normal((din, dhid)) / np.sqrt(din)).astype(np.float32).astype(np.float64)
    w2 = (rng.standard_normal((dhid, dout)) / np.sqrt(dhid)).astype(np.float32).astype(np.float64)
    b1, b2 = np.zeros(dhid), np.zeros(dout)
    task = (_philox(data_seed, _TASK_SALT, 0).standard_normal((din, dout))
            / np.sqrt(din)).astype(np.float32).astype(np.float64)
    params = [w1, b1, w2, b2]
    moms = [np.zeros_like(p) for p in params]

    by_step: dict[int, list[tuple[int, int]]] = {}
    for step, rid, cursor in ledger:
        by_step.setdefault(step, []).append((rid, cursor))
    for step in sorted(by_step):
        members = by_step[step]
        xs, ts = [], []
        for rid, cursor in members:
            for c in range(cursor - ranks, cursor):
                g = _philox(data_seed, 1, rid, c)
                x = g.standard_normal((mb, din)).astype(np.float32).astype(np.float64)
                noise = g.standard_normal((mb, dout)).astype(np.float32).astype(np.float64)
                xs.append(x)
                ts.append(x @ task + _NOISE * noise)
        x, t = np.vstack(xs), np.vstack(ts)
        w1, b1, w2, b2 = params
        h = np.tanh(x @ w1 + b1)
        # Each batch's loss is a mean over its own mb * dout outputs.
        dy = (2.0 / (mb * dout)) * (h @ w2 + b2 - t)
        dpre = (dy @ w2.T) * (1.0 - h * h)
        grads = [x.T @ dpre, dpre.sum(axis=0), h.T @ dy, dy.sum(axis=0)]
        scale = 1.0 / (len(members) * ranks)
        for p, m, g in zip(params, moms, grads):
            m *= beta
            m += g * scale
            p -= lr * m
    flat = lambda arrs: np.concatenate([a.ravel() for a in arrs])  # noqa: E731
    return flat(params), flat(moms)


def _rel_err(got: np.ndarray, want: np.ndarray) -> float:
    return float(np.linalg.norm(got - want) / max(np.linalg.norm(want), 1e-30))


def _read_jsonl(run_dir: str, prefix: str) -> list[dict]:
    rows = []
    for name in sorted(os.listdir(run_dir)):
        if name.startswith(prefix) and name.endswith(".jsonl"):
            with open(os.path.join(run_dir, name)) as fh:
                rows.extend(json.loads(line) for line in fh)
    return rows


def _read_ledger(path: str) -> list[tuple[int, int, int]]:
    with open(path) as fh:
        return [tuple(int(v) for v in line.split(",")) for line in fh if line.strip()]


def check_run(doc: dict, run_dir: str, exit_code: int, rows: list[dict],
              read_shard) -> list[str]:
    """Every way the run's outputs are wrong; an empty list means correct.

    read_shard(ckpt_dir, step, rank) -> (params bytes, momentum bytes) reads
    one rank's shard of a checkpoint.
    """
    total = doc["total_steps"]
    ranks = doc["topology"]["ranks_per_replica"]
    errors = []
    if exit_code != 0:
        errors.append(f"exit code {exit_code}")
    committed = {r["step"] for r in rows if r["phase"] == "commit"}
    if committed != set(range(1, total + 1)):
        errors.append(f"committed steps are not exactly 1..{total}")

    hashes: dict[int, set[str]] = {}
    for r in _read_jsonl(run_dir, "hashes_replica"):
        hashes.setdefault(r["step"], set()).add(r["hash"])
    split = sorted(s for s, hs in hashes.items() if len(hs) > 1)
    if split:
        errors.append(f"replica hashes disagree at steps {split[:5]}")
    if set(hashes) != set(range(1, total + 1)):
        errors.append("some committed step has no state hash")

    ledger = _read_ledger(os.path.join(run_dir, "ledger.txt"))
    cursors: dict[int, int] = {}
    last_step: dict[int, int] = {}
    members: dict[int, int] = {}
    for step, rid, cursor in ledger:
        if cursor != cursors.get(rid, 0) + ranks or step <= last_step.get(rid, 0):
            errors.append(f"ledger line {step},{rid},{cursor} is not exactly-once")
            break
        cursors[rid], last_step[rid] = cursor, step
        members[step] = members.get(step, 0) + 1
    healthy = {(r["step"], r["healthy_count"]) for r in rows if r["phase"] == "commit"}
    if healthy != set(members.items()):
        errors.append("ledger members per step do not match healthy_count")
    if errors:
        return errors

    ckpt = os.path.join(run_dir, "checkpoints")
    shards = [read_shard(ckpt, total, rank) for rank in range(ranks)]
    got_p = np.concatenate([np.frombuffer(p, dtype=np.float32) for p, _m in shards])
    got_m = np.concatenate([np.frombuffer(m, dtype=np.float32) for _p, m in shards])
    want_p, want_m = replay(doc, ledger)
    for what, got, want in (("params", got_p, want_p), ("momentum", got_m, want_m)):
        err = _rel_err(got.astype(np.float64), want)
        if not err <= TOLERANCE:
            errors.append(f"final {what} differ from the replay by {err:.3g} relative")
    return errors
