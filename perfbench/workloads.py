"""The benchmark's three workloads: inputs from a seed, jobs, output checks.

Each workload is a closed loop with one client: the next job starts
when the previous one returns.  Inputs are made from the benchmark seed
only; the program receives the generated instances.

check_desk
    ``check_theorem(id, trials=20, dims=(1, 4), seed=s)`` for every id,
    one pass of all 29 ids per derived seed ``s``.  Desk scale (n <= 4):
    interpreter and per-call overhead dominate, and each pair's Weyl
    family is evaluated at one or two points only.
sweep_n128
    ``weyl_sweep(bp, grid, eps=0.5)`` (what ``kreinrel sweep`` runs) on
    two unitary pairs with n=128, m=16, kappa=32, each over its own
    50-point nonreal grid.  LAPACK-bound; ``weyl`` and
    ``point_spectrum`` do nearly all the work, and many z share a pair.
gram_n128
    ``neg_squares_estimate(scale_eps(bp, 0.25), [grid])`` on one such
    pair over eight 16-point grids closed under conjugation.  Gram
    matrices and main-transform resolvents dominate; ``weyl`` is never
    called, so Weyl-side changes must leave it unchanged.
"""

import json
import os

import numpy as np

# calls go through the package attributes, so that a traced run sees
# them: tracing rebinds names in kreinrel's modules, not in this one
import kreinrel as kr

# outputs stored for one seed: the sweep's integer columns per pair and
# kappa' per Gram grid
REFERENCE = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                         "reference.json")

DESK_TRIALS = 20
DESK_DIMS = (1, 4)
N, M, KAPPA = 128, 16, 32
SWEEP_PAIRS = 2
SWEEP_POINTS = 50
SWEEP_EPS = 0.5
SWEEP_SPOT_ROWS = 3     # rows per pair recomputed through weyl/in_resolvent
GRAM_GRIDS = 8
GRAM_HALF = 8           # upper-half-plane points per grid, plus conjugates
GRAM_EPS = 0.25
GRAM_HERMITIAN_RTOL = 1e-10
# warm-up runs on instances of its own, never on the timed ones, so that
# it cannot fill a per-instance cache the timed loop would then skip
WARMUP_KEY = 1 << 30
WARMUP_N, WARMUP_M, WARMUP_KAPPA = 8, 2, 2


def derived_seed(seed, k):
    return int(np.random.SeedSequence([seed, k]).generate_state(1)[0])


def _warmup_pair(seed):
    spec = kr.InstanceSpec(n=WARMUP_N, m=WARMUP_M, kappa_minus=WARMUP_KAPPA)
    return kr.gen_unitary_boundary_pair(
        spec, kr.rng_stream(seed, WARMUP_KEY), kr.DEFAULT_TOL)


def _pair_path(inputs_dir, i):
    return os.path.join(inputs_dir, f"pair{i}.json")


def _prepare_pairs(inputs_dir, seed, count):
    """Write the n=128 pairs as JSON once per seed (untimed)."""
    os.makedirs(inputs_dir, exist_ok=True)
    for i in range(count):
        path = _pair_path(inputs_dir, i)
        if os.path.exists(path):
            continue
        spec = kr.InstanceSpec(n=N, m=M, kappa_minus=KAPPA)
        bp = kr.gen_unitary_boundary_pair(spec, kr.rng_stream(seed, i),
                                          kr.DEFAULT_TOL)
        tmp = f"{path}.{os.getpid()}.tmp"
        with open(tmp, "w") as fp:
            kr.dump(bp, fp)
        os.replace(tmp, path)


def _load_pairs(inputs_dir, count):
    pairs = []
    for i in range(count):
        with open(_pair_path(inputs_dir, i)) as fp:
            pairs.append(kr.load(fp))
    return pairs


def _reference(seed):
    with open(REFERENCE) as fp:
        ref = json.load(fp)
    return ref if ref["seed"] == seed else None


class CheckDesk:
    name = "check_desk"
    unit = "trials"
    whole_passes = True   # every pass runs all 29 ids: a fixed job mix

    def prepare(self, inputs_dir, seed):
        pass

    def setup(self, inputs_dir, seed):
        self.seed = seed

    def warmup(self):
        s = derived_seed(self.seed, WARMUP_KEY)
        for tid in kr.THEOREM_IDS:
            kr.check_theorem(tid, trials=1, dims=DESK_DIMS, seed=s)

    def pass_jobs(self, k):
        s = derived_seed(self.seed, k)
        return [(tid, s) for tid in kr.THEOREM_IDS]

    def run(self, job):
        tid, s = job
        return kr.check_theorem(tid, trials=DESK_TRIALS, dims=DESK_DIMS,
                                seed=s)

    def units(self, job):
        return DESK_TRIALS

    def key(self, job):
        return job

    def fingerprint(self, out):
        return out.to_json()

    def check(self, job, out):
        if out.failures != 0 or out.trials != DESK_TRIALS:
            return (f"{job[0]} seed {job[1]}: {out.failures} failures "
                    f"in {out.trials} trials")
        return None

    def final_checks(self):
        return {}


class SweepN128:
    name = "sweep_n128"
    unit = "points"
    # a pass is both pairs, but the loop may stop after either: a pass
    # is about half a run, so whole passes would make the run's length
    # jump by that much, and the two pairs' sweeps cost the same within
    # a few per cent
    whole_passes = False

    def prepare(self, inputs_dir, seed):
        _prepare_pairs(inputs_dir, seed, SWEEP_PAIRS)

    def setup(self, inputs_dir, seed):
        self.seed = seed
        self.pairs = _load_pairs(inputs_dir, SWEEP_PAIRS)
        self.grids = []
        for i in range(SWEEP_PAIRS):
            rng = np.random.default_rng([seed, 1, i])
            re = rng.uniform(-2.0, 2.0, SWEEP_POINTS)
            im = rng.uniform(0.5, 2.0, SWEEP_POINTS) * rng.choice(
                [-1.0, 1.0], SWEEP_POINTS)
            self.grids.append([complex(a, b) for a, b in zip(re, im)])
        self.first = {}

    def warmup(self):
        kr.weyl_sweep(_warmup_pair(self.seed), self.grids[0][:2],
                      eps=SWEEP_EPS)

    def pass_jobs(self, k):
        return list(range(SWEEP_PAIRS))

    def run(self, i):
        return kr.weyl_sweep(self.pairs[i], self.grids[i], eps=SWEEP_EPS)

    def units(self, i):
        return SWEEP_POINTS

    def key(self, i):
        return i

    def fingerprint(self, out):
        return out

    def check(self, i, csv):
        # every sweep of one pair must repeat the first byte for byte
        first = self.first.setdefault(i, csv)
        if csv != first:
            return f"pair {i}: sweep output differs between repeats"
        return None

    def final_checks(self):
        """Recompute sampled rows through public weyl/in_resolvent, and
        compare every row with the stored reference at the default seed."""
        bad = {}
        ref = _reference(self.seed)
        for i, csv in self.first.items():
            rows = [r.split(",") for r in csv.strip().split("\n")[1:]]
            ints = [",".join(r[2:]) for r in rows]
            if len(rows) != SWEEP_POINTS:
                bad[i] = f"pair {i}: {len(rows)} rows, expected {SWEEP_POINTS}"
                continue
            if ref is not None and ints != ref["sweep_n128"][i]:
                bad[i] = f"pair {i}: integer columns differ from reference"
                continue
            rng = np.random.default_rng([self.seed, 3, i])
            sigma0 = kr.boundary.sigma0_points(self.pairs[i])
            for r in rng.choice(SWEEP_POINTS, SWEEP_SPOT_ROWS, replace=False):
                want = sweep_row(self.pairs[i], self.grids[i][r], sigma0)
                if ints[r] != want:
                    bad[i] = (f"pair {i} row {r}: sweep gave {ints[r]}, "
                              f"recomputation gives {want}")
                    break
        return bad


def sweep_row(bp, z, sigma0):
    """The integer columns of one sweep row, from public calls;
    ``sigma0`` is ``boundary.sigma0_points(bp)``."""
    tol = bp.tol
    M = kr.weyl(bp, z).M
    in_O = (sigma0 is not None
            and all(abs(z - w) > 1e-8 * (1 + abs(w)) for w in sigma0)
            and bp.a_star().ran_shifted(z, tol).dim == bp.n)
    in_sigma = in_O and kr.in_resolvent(kr.m_plus_z(M, z, tol), 0.0, tol)
    cols = (M.graph.dim, M.mul(tol).dim, M.ker(tol).dim,
            int(M.is_operator(tol)), int(in_sigma),
            int(kr.in_resolvent(kr.main_transform(bp), z, tol)))
    return ",".join(str(c) for c in cols)


class GramN128:
    name = "gram_n128"
    unit = "points"
    whole_passes = False

    def prepare(self, inputs_dir, seed):
        _prepare_pairs(inputs_dir, seed, 1)

    def setup(self, inputs_dir, seed):
        self.seed = seed
        (bp,) = _load_pairs(inputs_dir, 1)
        self.scaled = kr.scale_eps(bp, GRAM_EPS)
        self.grids = []
        for g in range(GRAM_GRIDS):
            rng = np.random.default_rng([seed, 2, g])
            re = rng.uniform(-2.0, 2.0, GRAM_HALF)
            im = rng.uniform(0.5, 2.0, GRAM_HALF)
            up = [complex(a, b) for a, b in zip(re, im)]
            self.grids.append(kr.KernelSampleGrid(
                points=tuple(up + [z.conjugate() for z in up])))
        self.first = {}

    def warmup(self):
        small = kr.scale_eps(_warmup_pair(self.seed), GRAM_EPS)
        kr.neg_squares_estimate(small, [self.grids[0]])

    def pass_jobs(self, k):
        return list(range(GRAM_GRIDS))

    def run(self, g):
        return kr.neg_squares_estimate(self.scaled, [self.grids[g]])

    def units(self, g):
        return 2 * GRAM_HALF

    def key(self, g):
        return g

    def fingerprint(self, out):
        return repr((out.kappa_prime, out.kappa_bound, out.grids_used))

    def check(self, g, out):
        if out.kappa_prime > self.scaled.H.neg_index:
            return (f"grid {g}: kappa' = {out.kappa_prime} exceeds the "
                    f"negative index {self.scaled.H.neg_index}")
        first = self.first.setdefault(g, out.kappa_prime)
        if out.kappa_prime != first:
            return f"grid {g}: kappa' differs between repeats"
        return None

    def final_checks(self):
        bad = {}
        ref = _reference(self.seed)
        for g, kappa in self.first.items():
            if ref is not None and kappa != ref["gram_n128"][g]:
                bad[g] = (f"grid {g}: kappa' = {kappa}, reference "
                          f"{ref['gram_n128'][g]}")
                continue
            G = kr.block_gram(self.scaled, self.grids[g])
            asym = np.linalg.norm(G - G.conj().T)
            if asym > GRAM_HERMITIAN_RTOL * np.linalg.norm(G):
                bad[g] = f"grid {g}: Gram matrix not Hermitian ({asym:.3g})"
        return bad


WORKLOADS = {w.name: w for w in (CheckDesk, SweepN128, GramN128)}
