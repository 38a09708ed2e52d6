"""The config boundary's outcome on a seeded set of generated configs.

Each config draws a random subset of the top-level keys, a few unknown ones,
and nested dataset and schedule objects, with values that are mostly valid
and sometimes any JSON value (NaN, the infinities and 401-digit integers
included).  The test hashes each outcome: the accepted config's
``repr(to_dict())``, or "rejected" for a ``ConfigError``.  Messages stay out
of the digest, so a reworded message or a different first fault keeps it;
accepting or rejecting one more config, or echoing it differently, does not.
Any other exception fails the test.
"""

from __future__ import annotations

import copy
import hashlib
import random

from shuffleopt.harness import ConfigError, ExperimentConfig

CONFIGS = 30_000
DIGEST = "f415c85c8630e6bce43b90464cc3b9171141c822e6e9e2f5b99a2e03bde24d6a"
ACCEPTED = 2323

HUGE = 10**400
ANY = [None, True, False, 0, 1, -1, 2, 3.0, 20.0, 2.5, -0.0, 1e-300, 1e308, HUGE, -HUGE,
       float("nan"), float("inf"), -float("inf"), "", "x", "rr", "thm1", [], [1], [1.5],
       [1, 1], ["thm1"], [None], [True], {}, {"kind": "thm1"}]
REGIMES = ["thm1", "thm2", "thm3", "init-cond", "constant", "thm9"]
FIXTURE = "fixtures/blobs600.libsvm"


def _reals(rng):
    return [rng.choice([0.1, 0.05, 1, 0.2, -0.5, 0.0, 3, 1e-3, HUGE, float("nan")])
            for _ in range(rng.randint(0, 4))]


def _ints(rng):
    return [rng.choice([1, 2, 3, 4, 8, 16, 0, -1, 2.0, 4.5, True])
            for _ in range(rng.randint(0, 4))]


GOOD = {
    "optimizer": lambda rng: rng.choice(["nasg", "nasg-pi", "nag", "sgd", "sgdm", "adam", "bfgs"]),
    "scheme": lambda rng: rng.choice(["rr", "ss", "ig", "shuffle"]),
    "epochs": lambda rng: rng.choice([1, 2, 4, 16, 0, -3, 2.0, HUGE]),
    "batch_size": lambda rng: rng.choice([1, 2, 5, 0, 1.0]),
    "seeds": lambda rng: _ints(rng),
    "grid": lambda rng: _reals(rng),
    "label": lambda rng: rng.choice(["a", "nasg, rr", None, ""]),
    "x0": lambda rng: _reals(rng),
    "record_accuracy": lambda rng: rng.choice([True, False]),
    "record_dispersion": lambda rng: rng.choice([True, False]),
    "reference": lambda rng: rng.choice(["auto", "closed-form", "solve", "none", "exact"]),
    "bounds": lambda rng: rng.choice(
        [None, [rng.choice(REGIMES) for _ in range(rng.randint(0, 3))]]),
    "rate_epochs": lambda rng: rng.choice([None, _ints(rng)]),
    "sgdm_beta": lambda rng: rng.choice([0.9, 0.0, 0.5, 1, -3, 1.0]),
    "adam_beta1": lambda rng: rng.choice([0.9, 0.0, 1.0]),
    "adam_beta2": lambda rng: rng.choice([0.999, 1.5, 0]),
    "adam_eps": lambda rng: rng.choice([1e-8, 1, -1.0, 0.0]),
    "with_replacement": lambda rng: rng.choice([True, False]),
    "out": lambda rng: rng.choice(["results", None]),
}
DATASET = {
    "n": lambda rng: rng.choice([1, 5, 20, 20.0, 2.7, 0, -1]),
    "d": lambda rng: rng.choice([1, 2, 4, 4.0, 2.2]),
    "seed": lambda rng: rng.choice([0, 3, 7.5, -2]),
    "spread": lambda rng: rng.choice([0.0, 1, 1.0, -1.0, 2.5]),
    "path": lambda rng: rng.choice([FIXTURE, "missing.libsvm"]),
    "objective": lambda rng: rng.choice(["logistic", "softmax", "hinge"]),
    "mode": lambda rng: rng.choice(["binary", "multiclass", "auto", "x"]),
    "dim": lambda rng: rng.choice([None, 2, 5000, 2.0]),
    "add_bias": lambda rng: rng.choice([True, False]),
    "scale": lambda rng: rng.choice([True, False]),
    "N": lambda rng: 5,
}
SCHEDULE = {
    "lr": lambda rng: rng.choice([0.1, 1, 25.0, -1, 0]),
    "theta": lambda rng: rng.choice([0.0, 0.5, 1, -1]),
    "sigma_sq": lambda rng: rng.choice([0.0, 0.3, 2, -1, -0.0]),
    "eta": lambda rng: 0.1,
}


def _value(rng, draw):
    return draw(rng) if rng.random() < 0.93 else copy.deepcopy(rng.choice(ANY))


def _section(rng, kinds: dict, keys: dict) -> dict:
    """A dataset or schedule object: mostly a known kind with some of its own
    keys, sometimes no kind or keys drawn from every kind."""
    kind = rng.choice(sorted(kinds))
    section = {} if rng.random() < 0.05 else {"kind": _value(rng, lambda r: kind)}
    names = sorted(keys) if rng.random() < 0.2 else kinds[kind]
    for key in rng.sample(names, min(len(names), rng.randint(0, 3))):
        section[key] = _value(rng, keys[key])
    return section


DATASET_KINDS = {"quadratic": ["n", "d", "seed", "spread"], "csv": ["n"],
                 "libsvm": ["path", "path", "objective", "mode", "dim", "add_bias", "scale"]}
SCHEDULE_KINDS = {"constant": ["lr"], "thm1": [], "thm2": ["theta", "sigma_sq"], "thm3": [],
                  "init-cond": [], "thm9": ["lr"]}


def random_config(rng) -> dict:
    raw = {key: _value(rng, draw) for key, draw in GOOD.items() if rng.random() < 0.3}
    if rng.random() < 0.7:
        raw["dataset"] = _value(rng, lambda r: _section(r, DATASET_KINDS, DATASET))
    if rng.random() < 0.7:
        raw["schedule"] = _value(rng, lambda r: _section(r, SCHEDULE_KINDS, SCHEDULE))
    if rng.random() < 0.03:
        raw[rng.choice(["optimiser", "lr", "kind"])] = 1
    return raw


def outcomes(count: int, seed: int = 18):
    rng = random.Random(seed)
    for _ in range(count):
        try:
            yield repr(ExperimentConfig.from_dict(random_config(rng)).to_dict())
        except ConfigError:
            yield "rejected"


def test_config_outcomes_bitwise():
    digest = hashlib.sha256()
    accepted = 0
    for outcome in outcomes(CONFIGS):
        accepted += outcome != "rejected"
        digest.update(outcome.encode() + b"\n")
    assert (accepted, digest.hexdigest()) == (ACCEPTED, DIGEST)
