"""The benchmark workloads: set-up, one timed round, and the output checks.

``setup`` builds every input from the master seed; each random stream comes
from ``derive_seed(seed, "<workload>.<stream>")``, so the same seed gives the
same inputs. ``run_round`` does the workload's fixed amount of work once and
times every call into the program through a ``Round``. The runner repeats
rounds until the measuring time is spent and reports medians over rounds.

Every call into ``mrfmap`` goes through a module attribute
(``dictionary.match``), so a traced run sees the span wrappers.
"""

from __future__ import annotations

import statistics
import time
from dataclasses import asdict, dataclass
from pathlib import Path

import numpy as np

from mrfmap import dictionary, epg, schedule
from mrfmap.epg import TissueParams
from mrfmap.nn import adam, backprop, checkpoint, models
from mrfmap.seeding import derive_seed

from mrfbench import checks

# The paper's relaxation ranges: T1 up to 4000 ms, T2 from 5 to 500 ms.
T1_MAX_MS = 4000.0
T2_RANGE_MS = (5.0, 500.0)
# Tissues keep T1 >= 500 ms, so every (T1, T2) pair has T2 <= T1 and the atom
# count of a jittered grid does not depend on the seed.
TISSUE_T1_RANGE_MS = (500.0, T1_MAX_MS)
SNR = 20.0


class Round:
    """Wall time of every program call in one round, keyed by operation.

    ``scale`` turns wall seconds into reference seconds (see ``speed``);
    ``busy``, ``wall`` and ``scaled`` report reference seconds.
    """

    def __init__(self):
        self.times: dict[str, list[float]] = {}
        self.rejected = 0  # calls the program refused with ValueError
        self.scale = 1.0

    def call(self, op: str, fn, *args, **kwargs):
        t0 = time.perf_counter()
        out = fn(*args, **kwargs)
        self.times.setdefault(op, []).append(time.perf_counter() - t0)
        return out

    def scaled(self, op: str) -> list[float]:
        return [t * self.scale for t in self.times.get(op, ())]

    def busy(self, op: str) -> float:
        return sum(self.scaled(op))

    @property
    def calls(self) -> int:
        return sum(len(v) for v in self.times.values())

    @property
    def wall(self) -> float:
        return self.scale * sum(sum(v) for v in self.times.values())


def stratified_log(rng, lo: float, hi: float, k: int) -> np.ndarray:
    """One value drawn log-uniformly inside each of k equal log-strata of [lo, hi]."""
    u = (np.arange(k) + rng.random(k)) / k
    return lo * (hi / lo) ** u


def stratified_tissues(rng, t1_range, t2_range, n_t1: int, n_t2: int):
    """n_t1 * n_t2 off-grid tissues, one drawn inside each (log T1, log T2) stratum."""
    u1 = (np.arange(n_t1)[:, None] + rng.random((n_t1, n_t2))) / n_t1
    u2 = (np.arange(n_t2)[None, :] + rng.random((n_t1, n_t2))) / n_t2
    t1 = t1_range[0] * (t1_range[1] / t1_range[0]) ** u1
    t2 = t2_range[0] * (t2_range[1] / t2_range[0]) ** u2
    return [TissueParams(float(a), float(b)) for a, b in zip(t1.ravel(), t2.ravel())]


def add_noise(rng, clean: np.ndarray, sigma: float) -> np.ndarray:
    """Magnitude of a complex signal plus circular Gaussian noise of std sigma."""
    noise = rng.standard_normal(clean.shape + (2,)) * (sigma / np.sqrt(2.0))
    return np.abs(clean + (noise[..., 0] + 1j * noise[..., 1]))


def noise_sigma(clean: np.ndarray) -> float:
    """Noise std giving the benchmark SNR against the mean per-signal RMS."""
    return float(np.mean(np.sqrt(np.mean(np.abs(clean) ** 2, axis=1)))) / SNR


def unit_rows(x: np.ndarray) -> np.ndarray:
    return x / np.linalg.norm(x, axis=1, keepdims=True)


def p90(times: list[float]) -> float:
    return statistics.quantiles(times, n=10)[-1]


def model_spec(kind: str, input_len: int, hidden: int) -> models.ModelSpec:
    return models.ModelSpec(kind=kind, input_len=input_len, hidden_dim=hidden)


MODEL_KINDS = {"gru": "rnn_regressor", "ann": "ann", "cnn": "cnn1d"}


class Workload:
    """Common state: seed streams, scratch directory and per-layer extras."""

    name = ""
    streams: tuple[str, ...] = ()

    def __init__(self, seed: int, size, scratch: Path):
        self.seed = seed
        self.size = size
        self.scratch = scratch
        self.seeds = {s: derive_seed(seed, f"{self.name}.{s}") for s in self.streams}
        self.extras = {"dictionary.file_bytes": 0,
                       "dictionary.atoms_resident_bytes": 0,
                       "dictionary.match.rejected": 0,
                       "dictionary.match.naive_agree_frac": 0.0,
                       "nn.checkpoint.file_bytes": 0}

    def config(self) -> dict:
        return {"size": asdict(self.size), "seeds": self.seeds,
                "schedule_digest": self.digest,
                "n_excitations": self.sched.n_excitations,
                "k_max": self.sched.n_excitations}


# ---------------------------------------------------------------- dict-build

@dataclass(frozen=True)
class DictBuildSize:
    n_excitations: int = 1750
    t1_points: int = 6
    t2_points: int = 6
    oracle_atoms: int = 3


class DictBuild(Workload):
    """Build a coarse paper-range dictionary at paper length, save and load it.

    EPG's O(N^2) loop is nearly all of the round. Matching and the networks
    never run, so changes to them should show no effect here.
    """

    name = "dict-build"
    streams = ("grid", "check")

    def setup(self):
        self.sched = schedule.default_schedule(self.size.n_excitations)
        self.digest = schedule.schedule_digest(self.sched)
        rng = np.random.default_rng(self.seeds["grid"])
        t1 = stratified_log(rng, *TISSUE_T1_RANGE_MS, self.size.t1_points)
        t2 = stratified_log(rng, *T2_RANGE_MS, self.size.t2_points)
        # One-point segments: a jittered grid that is still a GridSpec.
        self.grid = dictionary.GridSpec(tuple((v, v, 1.0) for v in t1),
                                        tuple((v, v, 1.0) for v in t2))
        self.n_atoms = len(dictionary.expand_grid(self.grid))
        self.base = self.scratch / "dict-build"

    def config(self) -> dict:
        return {**super().config(), "grid": self.grid.to_json_dict(),
                "n_atoms": self.n_atoms, "build_batch_size": "default"}

    def run_round(self, r: Round):
        built = r.call("build", dictionary.build_dictionary, self.grid, self.sched)
        paths = r.call("save", dictionary.save_dictionary, built, self.base)
        loaded = r.call("load", dictionary.load_dictionary, self.base)
        self.extras["dictionary.file_bytes"] = sum(p.stat().st_size for p in paths)
        self.extras["dictionary.atoms_resident_bytes"] = loaded.atoms.nbytes
        return built, loaded

    def headline(self, r: Round) -> float:
        return self.n_atoms / r.busy("build")

    def check(self, outputs) -> list[tuple[str, bool]]:
        built, loaded = outputs
        results = [("dictionary save->load is bit-identical",
                    checks.same_dictionary(built, loaded))]
        # The shortest- and longest-T2 atoms, plus random others.
        t2 = np.array([p.t2_ms for p in built.labels])
        picks = [int(np.argmin(t2)), int(np.argmax(t2))]
        rng = np.random.default_rng(self.seeds["check"])
        for i in rng.permutation(built.n_atoms):
            if len(picks) >= self.size.oracle_atoms:
                break
            if int(i) not in picks:
                picks.append(int(i))
        n = self.sched.n_excitations
        for i in picks[:self.size.oracle_atoms]:
            ref = epg.isochromat_oracle(built.labels[i], self.sched, n + 1)
            results.append((f"atom {i} {built.labels[i]} equals the isochromat oracle",
                            checks.atom_matches_oracle(built.atoms[i], ref.samples)))
        return results

    def report(self, rounds, outputs) -> dict:
        return {"build_atoms_per_s": (
            statistics.median(self.headline(r) for r in rounds), "atoms/s", len(rounds))}


# ----------------------------------------------------------------------- map

@dataclass(frozen=True)
class MapSize:
    n_excitations: int = 250
    t1_segments: tuple = ((100.0, 1000.0, 50.0), (1000.0, 4000.0, 150.0))
    t2_segments: tuple = ((5.0, 50.0, 5.0), (50.0, 500.0, 25.0))
    tissue_side: int = 8        # tissue_side**2 phantom tissues
    slice_side: int = 256       # slice_side**2 voxels
    match_batch: int = 8192     # voxels per match_batch call
    match_one: int = 1000       # voxels matched one at a time
    gru_signals: int = 448      # predict_batch subsets of at least 1 s,
    ann_signals: int = 65536    # except the ANN: the whole slice takes 0.7 s
    cnn_signals: int = 8192
    gru_batch: int = 64         # signals per gru predict_batch call
    net_batch: int = 1024       # signals per ann/cnn predict_batch call
    single: int = 64            # predict_single calls per model
    hidden: int = 100
    check_voxels: int = 64      # match_batch rows checked against naive


# Phantom tissues lie strictly inside the map dictionary's grid.
PHANTOM_T1_MS = (500.0, 3600.0)
PHANTOM_T2_MS = (8.0, 400.0)


class Map(Workload):
    """Map a noisy phantom slice by matching and by the GRU, ANN and CNN.

    EPG runs only in set-up; backprop and Adam never run.
    """

    name = "map"
    streams = ("tissues", "noise", "subsets", "check",
               "init.gru", "init.ann", "init.cnn")

    def setup(self):
        size = self.size
        self.sched = schedule.default_schedule(size.n_excitations)
        self.digest = schedule.schedule_digest(self.sched)
        self.grid = dictionary.GridSpec(size.t1_segments, size.t2_segments)
        built = dictionary.build_dictionary(self.grid, self.sched)
        base = self.scratch / "map"
        paths = dictionary.save_dictionary(built, base)
        self.dictionary = dictionary.load_dictionary(base)
        self.extras["dictionary.file_bytes"] = sum(p.stat().st_size for p in paths)
        self.extras["dictionary.atoms_resident_bytes"] = self.dictionary.atoms.nbytes
        self.label_index = {p: i for i, p in enumerate(self.dictionary.labels)}

        rng = np.random.default_rng(self.seeds["tissues"])
        side = size.tissue_side
        tissues = stratified_tissues(rng, PHANTOM_T1_MS, PHANTOM_T2_MS, side, side)
        density = rng.uniform(0.6, 1.0, len(tissues))
        clean = epg.simulate_fingerprints(tissues, self.sched) * density[:, None]
        sigma = noise_sigma(clean)
        # Tissue blocks tile the slice; voxels are numbered row-major.
        rows, cols = np.divmod(np.arange(size.slice_side ** 2), size.slice_side)
        block = size.slice_side // side
        tissue_of = (rows // block) * side + cols // block
        self.truth = np.array([[t.t1_ms, t.t2_ms] for t in tissues])[tissue_of]
        noise_rng = np.random.default_rng(self.seeds["noise"])
        self.voxels = np.empty((tissue_of.size, size.n_excitations))
        for lo in range(0, tissue_of.size, 4096):
            idx = tissue_of[lo:lo + 4096]
            self.voxels[lo:lo + idx.size] = add_noise(noise_rng, clean[idx], sigma)
        self.net_inputs = unit_rows(self.voxels)

        self.nets = {}
        for tag, kind in MODEL_KINDS.items():
            spec = model_spec(kind, size.n_excitations, size.hidden)
            self.nets[tag] = (spec, models.init_params(spec, self.seeds[f"init.{tag}"]))
        pick = np.random.default_rng(self.seeds["subsets"])
        n_vox = tissue_of.size
        self.subsets = {
            "match": pick.choice(n_vox, size.match_one, replace=False),
            "gru": pick.choice(n_vox, size.gru_signals, replace=False),
            "ann": pick.choice(n_vox, size.ann_signals, replace=False),
            "cnn": pick.choice(n_vox, size.cnn_signals, replace=False),
        }
        self.singles = {tag: pick.choice(n_vox, size.single, replace=False)
                        for tag in MODEL_KINDS}

    def config(self) -> dict:
        return {**super().config(), "grid": self.grid.to_json_dict(),
                "n_atoms": self.dictionary.n_atoms,
                "phantom_tissues": self.size.tissue_side ** 2,
                "voxels": self.voxels.shape[0], "snr": SNR,
                "batch_sizes": {"match_batch": self.size.match_batch,
                                "gru": self.size.gru_batch,
                                "ann": self.size.net_batch,
                                "cnn": self.size.net_batch}}

    def run_round(self, r: Round):
        d, size = self.dictionary, self.size
        batch = []
        for lo in range(0, self.voxels.shape[0], size.match_batch):
            batch.extend(r.call("match_batch", dictionary.match_batch,
                                d, self.voxels[lo:lo + size.match_batch]))
        singles = []
        for v in self.subsets["match"]:
            try:
                singles.append(r.call("match", dictionary.match, d, self.voxels[v]))
            except ValueError:
                r.rejected += 1
                singles.append(None)
        for tag in MODEL_KINDS:
            spec, params = self.nets[tag]
            subset = self.subsets[tag]
            step = size.gru_batch if tag == "gru" else size.net_batch
            for lo in range(0, subset.size, step):
                r.call(f"predict_batch.{tag}", models.predict_batch, spec, params,
                       self.net_inputs[subset[lo:lo + step]])
        one = {tag: [r.call(f"predict_single.{tag}", models.predict_single,
                            *self.nets[tag], self.net_inputs[v])
                     for v in self.singles[tag]]
               for tag in MODEL_KINDS}
        return batch, singles, one

    def headline(self, r: Round) -> float:
        return self.voxels.shape[0] / r.busy("match_batch")

    def check(self, outputs) -> list[tuple[str, bool]]:
        batch, singles, one = outputs
        atoms = self.dictionary.atoms
        results = []
        rng = np.random.default_rng(self.seeds["check"])
        sample = rng.choice(len(batch), self.size.check_voxels, replace=False)
        exact = 0
        for v in sample:
            label, score = batch[v]
            ok, same = checks.batch_match_ok(atoms, self.voxels[v],
                                             self.label_index[label], score)
            exact += same
            results.append((f"match_batch voxel {v} equals the naive argmax", ok))
        self.extras["dictionary.match.naive_agree_frac"] = exact / len(sample)
        self.extras["dictionary.match.rejected"] = sum(s is None for s in singles)
        for v, single in zip(self.subsets["match"], singles):
            if single is not None:  # a refusal is already a failed operation
                results.append((f"match voxel {v} equals its match_batch row",
                                checks.single_match_ok(single, batch[v])))
        for tag in MODEL_KINDS:
            spec, params = self.nets[tag]
            ref = models.predict_batch(spec, params,
                                       self.net_inputs[self.singles[tag]])
            for k, v in enumerate(self.singles[tag]):
                results.append((f"{tag} predict_single voxel {v} equals predict_batch",
                                checks.predictions_agree(one[tag][k], ref[k])))
        return results

    def report(self, rounds, outputs) -> dict:
        batch = outputs[0]
        est = np.array([[p.t1_ms, p.t2_ms] for p, _ in batch])
        mae = np.mean(np.abs(est - self.truth), axis=0)
        match_times = [t for r in rounds for t in r.scaled("match")]
        gru_times = [t for r in rounds for t in r.scaled("predict_single.gru")]

        def rate(tag):
            n = self.subsets[tag].size
            return statistics.median(n / r.busy(f"predict_batch.{tag}") for r in rounds)

        return {
            "match_signals_per_s": (statistics.median(self.headline(r) for r in rounds),
                                    "signals/s", len(rounds)),
            "match_one_p50_ms": (1e3 * statistics.median(match_times), "ms",
                                 len(match_times)),
            "match_one_p90_ms": (1e3 * p90(match_times), "ms", len(match_times)),
            "match_t1_mae_ms": (float(mae[0]), "ms", len(batch)),
            "match_t2_mae_ms": (float(mae[1]), "ms", len(batch)),
            "rnn_signals_per_s": (rate("gru"), "signals/s", len(rounds)),
            "ann_signals_per_s": (rate("ann"), "signals/s", len(rounds)),
            "cnn_signals_per_s": (rate("cnn"), "signals/s", len(rounds)),
            "rnn_one_p50_ms": (1e3 * statistics.median(gru_times), "ms", len(gru_times)),
        }


# --------------------------------------------------------------------- train

@dataclass(frozen=True)
class TrainSize:
    n_excitations: int = 1750
    t1_strata: int = 4
    t2_strata: int = 8
    batch: int = 64
    gru_steps: int = 2
    ann_steps: int = 16
    cnn_steps: int = 2
    hidden: int = 100


class Train(Workload):
    """Noisy minibatch training steps for the GRU, ANN and CNN, then checkpoints.

    Each round restarts every model from the same initialization, so the
    losses are a deterministic function of the seed. Matching never runs.
    """

    name = "train"
    streams = ("tissues", "noise", "init.gru", "init.ann", "init.cnn")

    def setup(self):
        size = self.size
        self.sched = schedule.default_schedule(size.n_excitations)
        self.digest = schedule.schedule_digest(self.sched)
        rng = np.random.default_rng(self.seeds["tissues"])
        tissues = stratified_tissues(rng, TISSUE_T1_RANGE_MS, T2_RANGE_MS,
                                     size.t1_strata, size.t2_strata)
        clean = epg.simulate_fingerprints(tissues, self.sched)
        sigma = noise_sigma(clean)
        rows = np.arange(size.batch) % len(tissues)
        labels = np.array([[t.t1_ms / T1_MAX_MS, t.t2_ms / T2_RANGE_MS[1]]
                           for t in tissues])
        self.targets = labels[rows]
        noise_rng = np.random.default_rng(self.seeds["noise"])
        self.steps = {"gru": size.gru_steps, "ann": size.ann_steps,
                      "cnn": size.cnn_steps}
        self.batches = [unit_rows(add_noise(noise_rng, clean[rows], sigma))
                        for _ in range(max(self.steps.values()))]
        self.nets = {}
        for tag, kind in MODEL_KINDS.items():
            spec = model_spec(kind, size.n_excitations, size.hidden)
            self.nets[tag] = (spec, models.init_params(spec, self.seeds[f"init.{tag}"]))

    def config(self) -> dict:
        return {**super().config(), "tissues": self.size.t1_strata * self.size.t2_strata,
                "snr": SNR, "batch_sizes": {"train": self.size.batch},
                "steps": self.steps, "learning_rate": adam.DEFAULT_LR}

    def run_round(self, r: Round):
        out = {}
        ckpt_bytes = 0
        for tag, (spec, init) in self.nets.items():
            params = {k: v.copy() for k, v in init.items()}
            state = adam.AdamState.for_params(params)
            losses, finite = [], []
            for x in self.batches[:self.steps[tag]]:
                loss, grads, _ = r.call(f"step.{tag}", backprop.loss_and_grads,
                                        spec, params, x, self.targets)
                r.call(f"step.{tag}", adam.adam_update, state, params, grads)
                losses.append(loss)
                finite.append(checks.finite_step(loss, grads))
            ckpt = checkpoint.ModelCheckpoint(
                spec, params, T1_MAX_MS, T2_RANGE_MS[1], self.seeds[f"init.{tag}"],
                {"steps": self.steps[tag]})
            path = self.scratch / f"{tag}.ckpt"
            r.call("checkpoint", checkpoint.save_checkpoint, ckpt, path)
            loaded = r.call("checkpoint", checkpoint.load_checkpoint, path)
            saved = path.read_bytes()
            ckpt_bytes += len(saved)
            out[tag] = (losses, finite, loaded, saved)
        self.extras["nn.checkpoint.file_bytes"] = ckpt_bytes
        return out

    def samples_per_s(self, r: Round, tag: str) -> float:
        return self.steps[tag] * self.size.batch / r.busy(f"step.{tag}")

    def headline(self, r: Round) -> float:
        return self.samples_per_s(r, "gru")

    def check(self, outputs) -> list[tuple[str, bool]]:
        results = []
        for tag, (losses, finite, loaded, saved) in outputs.items():
            for step, ok in enumerate(finite):
                results.append((f"{tag} step {step} loss and gradients are finite", ok))
            results.append((f"{tag} checkpoint save->load->save is byte-identical",
                            checks.checkpoint_resaves_identically(
                                loaded, saved, self.scratch / f"{tag}.resave.ckpt")))
        return results

    def report(self, rounds, outputs) -> dict:
        def rate(tag):
            return statistics.median(self.samples_per_s(r, tag) for r in rounds)

        return {
            "train_rnn_samples_per_s": (rate("gru"), "samples/s", len(rounds)),
            "train_ann_samples_per_s": (rate("ann"), "samples/s", len(rounds)),
            "train_cnn_samples_per_s": (rate("cnn"), "samples/s", len(rounds)),
            "train_rnn_loss": (outputs["gru"][0][-1], "mse", self.steps["gru"]),
        }


WORKLOADS = {w.name: w for w in (DictBuild, Map, Train)}
SIZES = {
    "full": {"dict-build": DictBuildSize(), "map": MapSize(), "train": TrainSize()},
    # Seconds-long versions for the benchmark's own tests.
    "tiny": {
        "dict-build": DictBuildSize(n_excitations=64, t1_points=2, t2_points=3,
                                    oracle_atoms=2),
        "map": MapSize(n_excitations=64,
                       t1_segments=((100.0, 4000.0, 650.0),),
                       t2_segments=((5.0, 500.0, 55.0),),
                       tissue_side=2, slice_side=16, match_batch=64, match_one=20,
                       gru_signals=8, ann_signals=256, cnn_signals=32, gru_batch=4,
                       net_batch=64,
                       single=4, hidden=8, check_voxels=8),
        "train": TrainSize(n_excitations=64, t1_strata=2, t2_strata=2, batch=8,
                           gru_steps=1, ann_steps=2, cnn_steps=1, hidden=8),
    },
}
