"""The four workloads: set-up, job lists and per-job checks.

Every workload is closed-loop with one client: the next job starts when the
previous one has returned.  A job is a ``Job``; ``run`` is the timed call into
liecones, ``check`` compares the result with the oracle (raises
``oracle.Mismatch``) and ``fingerprint`` gives the bytes compared when a job
with the same label repeats inside a run.

The benchmark calls liecones only through module attributes
(``lsa.check_axioms(...)``), so that the tracer's rebinding reaches it.

A set-up function takes (seed, workdir, lap) and calls ``lap()`` between its
steps: after the import and after each algebra it builds (see
``run.timed_setup``).
"""

from __future__ import annotations

import hashlib
import json
import os
from dataclasses import dataclass, field
from typing import Callable

import gen
import oracle
from oracle import expect


@dataclass
class Job:
    label: str
    run: Callable[[], object]
    check: Callable[[object], None]
    fingerprint: Callable[[object], str]


def digest(obj) -> str:
    return hashlib.sha256(json.dumps(obj, sort_keys=True, default=str).encode()).hexdigest()


def rows_str(rows) -> list:
    return [[str(x) for x in r] for r in rows]


# ---------------------------------------------------------------------------
# orbit-sweep
# ---------------------------------------------------------------------------

ORBIT_KEYS = ("h(1)", "hc(2|2,++)", "hc(2|2,+-)")
ORBIT_SIDE3_Z = (-2, -1, 0, 1)          # true central values z_low .. z_low+2
ORBIT_SIDE5 = (("hc(2|2,++)", -2),)     # the 5x5x5 grid of acceptance criterion 7


@dataclass
class OrbitState:
    seeded: dict
    windows: list        # (Window, box of scalars)


def orbit_setup(seed: int, workdir: str, lap) -> OrbitState:
    import liecones  # noqa: F401
    lap()
    rng = gen.rng_for("orbit-sweep", seed)
    seeded = {k: gen.seeded_algebra(k, gen.cold_entry(k, lap), rng) for k in ORBIT_KEYS}
    windows = []
    for k in ORBIT_KEYS:
        for zl in ORBIT_SIDE3_Z:
            windows.append(gen.draw_window(seeded[k], 3, zl, rng))
    for k, zl in ORBIT_SIDE5:
        windows.append(gen.draw_window(seeded[k], 5, zl, rng))
    rng.shuffle(windows)
    out = []
    for w in windows:
        f = seeded[w.key].algebra.field
        out.append((w, [tuple(f.rat(c) for c in p) for p in w.points()]))
    return OrbitState(seeded, out)


def orbit_jobs(st: OrbitState, pass_no: int) -> list[Job]:
    from liecones import orbits
    jobs = []
    for n, (w, box) in enumerate(st.windows):
        s = st.seeded[w.key]

        def check(descs, s=s, w=w):
            got = {frozenset(o.members) for o in descs}
            expect(got == gen.expected_partition(s, w), f"{w.key} {w.lows}: wrong partition")
            za, zsign = s.z_slot
            pts = w.points()
            for o in descs:
                z = zsign * pts[o.members[0]][za]
                expect(o.even_rank == (2 if z else 0), "even rank")
                expect(o.clifford_dim == (2 if z and w.key != "h(1)" else 1), "Clifford dim")

        jobs.append(Job(f"classify {n} {w.key} side {w.side}",
                        lambda g=s.algebra, box=box: orbits.classify_orbits(g, box),
                        check, lambda descs: digest([o.as_json() for o in descs])))
    return jobs


# ---------------------------------------------------------------------------
# structure-sweep
# ---------------------------------------------------------------------------

STRUCTURE_QUERIES = ("axioms", "roots", "star-reduced", "derivations")
RECHECK_KEYS = 3       # keys whose pass-0 jobs run again, untimed, for byte determinism


@dataclass
class StructureState:
    seed: int
    bases: dict
    order: list


def structure_setup(seed: int, workdir: str, lap) -> StructureState:
    import liecones  # noqa: F401
    lap()
    rng = gen.rng_for("structure-sweep", seed)
    bases = {k: gen.cold_entry(k, lap) for k in gen.KEYS}
    order = list(gen.KEYS)
    rng.shuffle(order)
    return StructureState(seed, bases, order)


def structure_inputs(st: StructureState, pass_no: int) -> dict:
    """(key, query) -> a fresh algebra in its own signed-permuted basis.

    Every job of every pass meets a new algebra object, with a permutation
    drawn from (seed, pass); only small keys, whose signed permutations give
    few distinct structure constants, meet the same constants twice."""
    rng = gen.rng_for("structure-sweep", st.seed, pass_no)
    out = {}
    for k in st.order:
        g = st.bases[k].algebra
        for q in STRUCTURE_QUERIES:
            sp = gen.SignedPerm.draw(rng, g.space.even_dim, g.space.odd_dim)
            out[(k, q)] = gen.permute_algebra(g, sp, k)
    return out


def roots_query(g):
    from liecones import cartan
    h0 = cartan.compact_cartan_even(g)
    if h0 is None:
        return None
    cd = cartan.cartan_subsuperalgebra(g, h0)
    return h0, cd, cartan.root_decomposition(g, cd)


def structure_jobs(st: StructureState, pass_no: int, keys=None) -> list[Job]:
    from liecones import cones, lsa
    algebras = structure_inputs(st, pass_no)
    jobs = []
    for k in st.order if keys is None else keys:
        g = {q: algebras[(k, q)] for q in STRUCTURE_QUERIES}

        def check_axioms(rep, k=k):
            expect(rep.all_ok, f"{k}: axioms fail")

        def check_roots(res, k=k, g=g["roots"]):
            expect((res is not None) == (k in oracle.HAS_COMPACT_CARTAN),
                   f"{k}: compact Cartan found = {res is not None}")
            if res is not None:
                datum = res[2]
                oracle.check_roots([tuple(oracle.tower(v) for v in r.values) for r in datum.roots],
                                   [r.even_space.dim + r.odd_space.dim for r in datum.roots],
                                   g.dim)

        def fp_roots(res):
            if res is None:
                return "none"
            h0, cd, datum = res
            return digest([rows_str(h0.rows), rows_str(cd.h.rows),
                           [([str(v) for v in r.values], r.even_space.dim, r.odd_space.dim)
                            for r in datum.roots]])

        def check_der(res, k=k):
            der, cen = res
            expect((der.dim, cen.dim) == oracle.DER_CENTROID[k], f"{k}: Der/centroid dims")

        def fp_der(res):
            return digest([[rows_str(M.rows) for M in fam.even + fam.odd] for fam in res])

        tag = f"{k} #{pass_no}"
        jobs += [
            Job(f"axioms {tag}", lambda g=g["axioms"]: lsa.check_axioms(g), check_axioms,
                lambda r: digest([r.parity_ok, r.antisymmetry_ok, r.jacobi_ok, r.violations])),
            Job(f"roots {tag}", lambda g=g["roots"]: roots_query(g), check_roots, fp_roots),
            Job(f"star-reduced {tag}", lambda g=g["star-reduced"]: cones.star_reduced_report(g),
                lambda r, k=k, g=g["star-reduced"]: oracle.check_star_json(g, k, r.as_json()),
                lambda r: digest(r.as_json())),
            Job(f"derivations {tag}",
                lambda g=g["derivations"]: (lsa.derivations(g), lsa.centroid(g)),
                check_der, fp_der),
        ]
    return jobs


def structure_recheck(st: StructureState) -> list[Job]:
    """Pass 0's jobs on the first RECHECK_KEYS keys again, rebuilt from the seed."""
    return structure_jobs(st, 0, st.order[:RECHECK_KEYS])


# ---------------------------------------------------------------------------
# clifford-tower
# ---------------------------------------------------------------------------

CLASSIFY_KEYS = ("cl(1|1,+)", "cl(1|2,++)", "cl(1|3,+++)", "cl(1|3,++-)",
                 "cl(1|4,++++)", "cl(1|4,+++-)", "hc(2|2,++)", "hc(2|2,+-)")
SHELLS = 4
SHELL_DEPTHS = (6, 16)


def osp_roots(g):
    """Root datum of osp(1|2); made in set-up, so that the shell jobs are
    hwm work only (the rational Cartan computations belong to structure-sweep)."""
    from liecones import cartan
    h0 = cartan.compact_cartan_even(g)
    return cartan.root_decomposition(g, cartan.cartan_subsuperalgebra(g, h0))


@dataclass
class CliffordState:
    norms: dict          # d -> (c, norms)
    seeded: dict         # key -> Seeded
    gammas: dict         # key -> gamma
    osp_datum: object
    depths: list
    modules: dict = field(default_factory=dict)


def key_signs(key: str) -> list[int]:
    return [1 if ch == "+" else -1 for ch in key[key.index(",") + 1:-1]]


def clifford_setup(seed: int, workdir: str, lap) -> CliffordState:
    import liecones  # noqa: F401
    lap()
    rng = gen.rng_for("clifford-tower", seed)
    norms = {d: gen.draw_normalization(d, rng) for d in range(3, 7)}
    seeded = {k: gen.seeded_algebra(k, gen.cold_entry(k, lap), rng) for k in CLASSIFY_KEYS}
    gammas = {}
    for k in CLASSIFY_KEYS:
        # definite keys get the sign that makes the scaled odd form positive
        _, zsign = seeded[k].z_slot
        sign = key_signs(k)[0] * zsign if len(set(key_signs(k))) == 1 else rng.choice((1, -1))
        gammas[k] = gen.draw_gamma(rng, sign)
    osp = gen.seeded_algebra("osp(1|2)", gen.cold_entry("osp(1|2)", lap), rng)
    depths = [rng.randint(*SHELL_DEPTHS) for _ in range(SHELLS)]
    return CliffordState(norms, seeded, gammas, osp_roots(osp.algebra), depths)


def shell_query(datum, depth: int):
    from liecones import hwm
    pos = hwm.positive_system(datum, (1,))
    fld = pos[0].values[0].field
    tm = hwm.build_truncated(datum, pos, hwm.CartanModule(1, (fld.zero,)), depth)
    return tm, [hwm.weight_in_cone(tm, w) for w in tm.weights]


def clifford_jobs(st: CliffordState, pass_no: int) -> list[Job]:
    from liecones import cliffrep
    jobs = []
    for d in range(3, 7):
        c, norms = st.norms[d]

        def make(d=d, norms=norms):
            st.modules[d] = cliffrep.clifford_module(d, norms)
            return st.modules[d]

        def check_module(rep, d=d, c=c, norms=norms):
            expect(rep.dim == 2 ** (d - d // 2), f"d={d}: module dimension {rep.dim}")
            expect(rep.field.tag == f"Q_i_sqrt({c})", f"d={d}: field {rep.field.tag}")
            gram = [[n if a == b else 0 for b in range(d)] for a, n in enumerate(norms)]
            oracle.check_clifford_relations(rep.mats, c, 1, gram)

        jobs.append(Job(f"module d={d}", make, check_module,
                        lambda rep: digest(rep.as_json())))
        jobs.append(Job(f"verify d={d}", lambda d=d: cliffrep.verify_rep(st.modules[d]),
                        lambda r, d=d: expect(r["all_ok"], f"d={d}: verify_rep"),
                        digest))
        if d <= 4:
            def equiv(d=d):
                m = st.modules[d]
                p = cliffrep.parity_change(m)
                return cliffrep.equivalent(m, p, allow_parity=True), cliffrep.equivalent(m, p)
            jobs.append(Job(f"equivalent d={d}", equiv,
                            lambda r, d=d: expect(r == (True, d % 2 == 1),
                                                  f"d={d}: equivalence {r}"),
                            str))
    for k in CLASSIFY_KEYS:
        s, gam = st.seeded[k], st.gammas[k]

        def classify(g=s.algebra, gam=gam):
            res = cliffrep.classify_heisenberg_clifford(g, gam)
            return res, [cliffrep.verify_rep(m)["all_ok"] for m in res.modules]

        def check_classify(out, k=k, s=s, gam=gam):
            res, verified = out
            _, zsign = s.z_slot
            signs = key_signs(k)
            d = len(signs)
            definite = all(gam * zsign * x > 0 for x in signs)
            expect(res.status == ("OK" if definite else "NONE"), f"{k}: {res.status}")
            if definite:
                expect([m.dim for m in res.modules] == [2 ** (d - d // 2)] * (2 - d % 2),
                       f"{k}: module dimensions")
                expect(all(verified), f"{k}: verify_rep")
                # [f_a, f_a] = (sign of the original odd vector) * zsign * (new Z)
                e = s.algebra.space.even_dim
                diag = [zsign * signs[s.sp.perm[e + a] - e] for a in range(d)]
                gram = [[diag[a] if a == b else 0 for b in range(d)] for a in range(d)]
                m = res.modules[0]
                oracle.check_clifford_relations(m.mats, m.field.d or 0, gam, gram)

        jobs.append(Job(f"classify {k}", classify, check_classify,
                        lambda out: digest([out[0].status, out[1], out[0].details,
                                            [m.as_json() for m in out[0].modules]])))
    for n, depth in enumerate(st.depths):
        def check_shell(out, depth=depth):
            tm, in_cone = out
            vals = [oracle.tower(r.values[0]) for r in tm.positives]
            expect(len(vals) == 2, "osp(1|2) needs two positive roots")
            alpha = min(vals, key=lambda v: abs(v[0]))
            expect(sorted(vals) == sorted([alpha, tuple(2 * x for x in alpha)]),
                   "positive roots are not alpha, 2 alpha")
            got = {oracle.tower(w[0]): m for w, m in tm.weights.items()}
            expect(got == oracle.shell_expected(alpha, depth), "shell weights")
            expect(all(in_cone), "weight outside the cone")

        jobs.append(Job(f"shell {n} depth {depth}",
                        lambda depth=depth: shell_query(st.osp_datum, depth), check_shell,
                        lambda out: digest(out[0].as_json())))
    return jobs


# ---------------------------------------------------------------------------
# cli-batch
# ---------------------------------------------------------------------------

# The acceptance CLI runs, verbatim, then the su(1,1|1,1) queries.
FIXED_CLI = [
    ["validate", "--catalog", "su(1,1|1,1)"],
    ["star-reduced", "--catalog", "sq(1,1)", "--cap", "400"],
    ["orbit-classify", "--catalog", "hc(2|2,++)", "--box", "central"],
    ["clifford", "--catalog", "cl(1|3,+++)", "--gamma", "1"],
    ["hwm", "--catalog", "osp(1|2)", "--x0", "1", "--depth", "4"],
    ["catalog", "list"],
    ["roots", "--catalog", "su(1,1|1,1)"],
    ["star-reduced", "--catalog", "su(1,1|1,1)"],
]
# Cheap fixed runs repeated in every pass, to compare bytes within a run.
REPEATED_CLI = [1, 2, 3, 4, 5]
FILE_KEYS = ("h(1)", "hc(2|2,++)", "cl(1|2,+-)", "cl(1|3,+++)", "cl(1|4,++++)",
             "osp(1|2)", "gl(1|1)", "n3super")


@dataclass
class CliJob:
    label: str
    argv: list
    check: Callable[[dict], None]


def cli_setup(seed: int, workdir: str, lap) -> list:
    import liecones.cli
    from liecones import cliffrep
    lap()
    rng = gen.rng_for("cli-batch", seed)
    os.makedirs(workdir, exist_ok=True)
    seeded = {k: gen.seeded_algebra(k, gen.cold_entry(k, lap), rng) for k in FILE_KEYS}
    files = {}
    for n, k in enumerate(FILE_KEYS):
        files[k] = f"alg{n}.json"
        with open(os.path.join(workdir, files[k]), "w") as fh:
            json.dump(seeded[k].algebra.to_json(), fh)
    windows = {k: gen.draw_window(seeded[k], 3, zl, rng)
               for k, zl in (("h(1)", 0), ("hc(2|2,++)", -1))}
    for n, (k, w) in enumerate(windows.items()):
        with open(os.path.join(workdir, f"box{n}.json"), "w") as fh:
            json.dump({"functionals": [list(p) for p in w.points()]}, fh)
    _, norms = gen.draw_normalization(3, rng)
    rep = cliffrep.clifford_module(3, norms)
    with open(os.path.join(workdir, "rep.json"), "w") as fh:
        json.dump(liecones.cli.rep_to_json_full(rep), fh)
    zsign = seeded["cl(1|4,++++)"].z_slot[1]
    gamma = gen.draw_gamma(rng, zsign)
    return cli_jobs(seeded, files, windows, gamma)


def _roots_check(dim):
    def check(doc):
        expect(doc["status"] == "OK", "roots status")
        roots = doc["results"]["roots"]
        oracle.check_roots([tuple(oracle.parse_tower(v) for v in r["alpha"]) for r in roots],
                           [r["even_dim"] + r["odd_dim"] for r in roots], dim)
    return check


def _partition_check(s, w):
    def check(doc):
        got = {frozenset(o["members"]) for o in doc["results"]["orbits"]}
        expect(got == gen.expected_partition(s, w), "wrong partition")
    return check


def _star_check(g, key):
    return lambda doc: oracle.check_star_json(g, key, doc["results"])


def cli_jobs(seeded, files, windows, gamma) -> list[CliJob]:
    def validate(doc):
        r = doc["results"]
        expect(r["parity_ok"] and r["antisymmetry_ok"] and r["jacobi_ok"]
               and not r["violations"], "axioms fail")

    def star_sq(doc):
        expect(doc["status"] == "OBSTRUCTED", "sq(1,1) is not obstructed")
        for r in doc["results"]["reasons"]:
            oracle.check_hull(r["coefficients"], r.get("vectors"))

    def central(doc):
        # central box: z = -2..2 on the centre; admissible iff z >= 0, each a point
        got = sorted(sorted(o["members"]) for o in doc["results"]["orbits"])
        expect(got == [[2], [3], [4]], "central box orbits")

    def clifford_cl3(doc):
        r = doc["results"]
        expect(r["classification"] == "OK" and r["module_count"] == 1
               and r["verification"] == [True], "cl(1|3,+++) classification")
        m = r["modules"][0]
        expect(m["even_dim"] + m["odd_dim"] == 4, "cl(1|3,+++) module dimension")

    def hwm_osp(doc):
        w = doc["results"]["weights"]
        alpha = min((oracle.parse_tower(r[0]) for r in doc["results"]["positive_roots"]),
                    key=lambda v: abs(v[0]))
        got = {oracle.parse_tower(x["weight"][0]): x["multiplicity"] for x in w}
        expect(got == oracle.shell_expected(alpha, 4), "osp(1|2) depth-4 shell")

    def catalog_list(doc):
        expect(doc["results"]["keys"] == list(gen.KEYS), "catalog keys")

    def star_su(doc):
        expect(doc["status"] == "OBSTRUCTED", "su(1,1|1,1) is not obstructed")
        reasons = doc["results"]["reasons"]
        expect(reasons and reasons[0]["kind"] == "root_square_hull", "su route")
        oracle.check_hull(reasons[0]["coefficients"], reasons[0]["vectors"])
        # criterion 4: the four H_(a,b) enter with weight 1/4 each
        expect([c for c in reasons[0]["coefficients"] if c != "0"] == ["1/4"] * 4,
               "quarter weights")

    fixed = [validate, star_sq, central, clifford_cl3, hwm_osp, catalog_list,
             _roots_check(15), star_su]
    jobs = [CliJob(" ".join(a), a, c) for a, c in zip(FIXED_CLI, fixed)]

    def alg(k):
        return ["--algebra", files[k]]

    def analyze_n3(doc):
        r = doc["results"]
        expect(r["nilpotent"] and r["solvable"], "n3super is nilpotent")
        expect(r["lower_central_dims"] == oracle.N3SUPER_LOWER_CENTRAL, "lower central series")
        der, cen = oracle.DER_CENTROID["n3super"]
        expect(sum(r["derivations_dim"].values()) == der
               and sum(r["centroid_dim"].values()) == cen, "Der / centroid")

    def clifford_cl4(doc):
        r = doc["results"]
        expect(r["classification"] == "OK" and r["module_count"] == 2
               and r["verification"] == [True, True], "cl(1|4,++++) classification")

    def cartan_gl(doc):
        r = doc["results"]
        expect(r["h0"]["dim"] == 2 and r["h"]["dim"] == 2
               and r["compactly_embedded"] is False, "gl(1|1) Cartan")

    def verify_rep(doc):
        expect(doc["results"]["all_ok"], "verify-rep")

    (kh, wh), (kc, wc) = windows.items()
    jobs += [
        CliJob("validate hc", ["validate"] + alg("hc(2|2,++)"), validate),
        CliJob("analyze n3super", ["analyze"] + alg("n3super"), analyze_n3),
        CliJob("star-reduced cl3", ["star-reduced"] + alg("cl(1|3,+++)"),
               _star_check(seeded["cl(1|3,+++)"].algebra, "cl(1|3,+++)")),
        CliJob("star-reduced cl2", ["star-reduced"] + alg("cl(1|2,+-)"),
               _star_check(seeded["cl(1|2,+-)"].algebra, "cl(1|2,+-)")),
        CliJob("orbit-classify h", ["orbit-classify"] + alg(kh) + ["--box", "box0.json"],
               _partition_check(seeded[kh], wh)),
        CliJob("orbit-classify hc", ["orbit-classify"] + alg(kc) + ["--box", "box1.json"],
               _partition_check(seeded[kc], wc)),
        CliJob("clifford cl4", ["clifford"] + alg("cl(1|4,++++)") + [f"--gamma={gamma}"],
               clifford_cl4),
        CliJob("verify-rep", ["verify-rep", "--rep", "rep.json"], verify_rep),
        CliJob("roots osp", ["roots"] + alg("osp(1|2)"), _roots_check(5)),
        CliJob("cartan gl", ["cartan"] + alg("gl(1|1)"), cartan_gl),
    ]
    jobs += [CliJob(jobs[i].label, jobs[i].argv, jobs[i].check) for i in REPEATED_CLI]
    return jobs


WORKLOADS = {
    "cli-batch": cli_setup,
    "orbit-sweep": orbit_setup,
    "structure-sweep": structure_setup,
    "clifford-tower": clifford_setup,
}
IN_PROCESS_JOBS = {
    "orbit-sweep": orbit_jobs,
    "structure-sweep": structure_jobs,
    "clifford-tower": clifford_jobs,
}
# Jobs that repeat earlier inputs, run untimed after the timed passes, for
# workloads whose passes never repeat an input (the others repeat whole passes).
RECHECK_JOBS = {
    "structure-sweep": structure_recheck,
}
