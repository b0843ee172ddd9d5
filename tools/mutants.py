"""Mutant catalogue: each entry breaks one shortcut of the library in a
temporary copy of the repository and names the tests that must then fail.

    python3 tools/mutants.py [FILE ...]

With FILE arguments only the mutants whose path ends in one of the files run
(``python3 tools/mutants.py catalog.py orbits.py``); with none, all of them.
For each mutant the script copies ``src/``, ``tests/`` and ``pyproject.toml``
to a temporary directory, checks that the named tests pass there (pytest exits
0), replaces the entry's old snippet (which must occur exactly once in its file)
and runs the tests again.  The mutant is killed when every one of them fails; a
test that errors, or whose module then fails to import or collect (pytest exits
2 or 4), counts as failed.  The exit status is 0 when every mutant is killed
and 1 otherwise.  This takes two pytest runs per mutant (10 to 16 minutes for
the catalogue on two cores) and is not part of the tier-1 suite.
"""

from __future__ import annotations

import os
import shutil
import subprocess
import sys
import tempfile
from dataclasses import dataclass

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
COPIED = ("src", "tests", "pyproject.toml")


@dataclass(frozen=True)
class Mutant:
    name: str
    path: str                   # relative to the repository root, under src/
    old: str
    new: str
    tests: tuple[str, ...]      # pytest node ids that must fail on the mutant


VERIFY = "tests/test_differential.py::test_verify_rep_matches_dense_checks"
AXIOMS = "tests/test_cliffrep.py::test_classified_modules_pass_axioms"
CONE = "tests/test_hwm.py::test_weight_in_cone_matches_enumeration"
ZERO_PIVOTS = "tests/test_cliffrep.py::test_classification_rejects_zero_pivots"
SCAN = "tests/test_differential.py::test_cartan_scan_matches_exhaustive_scan"
COMMUTANT = "tests/test_differential.py::test_endomorphism_solves_match_entrywise_builders"
INTERTWINERS = "tests/test_differential.py::test_intertwiners_match_entrywise_builder"
GCOMM = "tests/test_glinalg.py::test_block_positions_and_graded_commutant"
TRANSPORTER = "tests/test_differential.py::test_transporter_matches_the_loops_it_replaced"
TRANSPORTER_SL2 = "tests/test_lsa.py::test_transporter_sl2_by_hand"
BRACKET_FORM = "tests/test_differential.py::test_bracket_form_matches_the_loops_it_replaced"
BRACKET_FORM_HC = "tests/test_lsa.py::test_bracket_form_hc22_by_hand"
ROOT_FORMS = "tests/test_differential.py::test_root_space_forms_match_the_loop_they_replaced"
EXP = "tests/test_differential.py::test_constant_exponential_matches_the_combination_series"
POLARIZE = "tests/test_differential.py::test_polarizations_match_restrict_and_re_eliminate"
KEYED = "tests/test_differential.py::test_keyed_admissibility_matches_fresh_tests"
SPECTRAL = "tests/test_differential.py::test_spectral_certificate_matches_minimal_polynomial_test"
BLOCKS = "tests/test_differential.py::test_spectral_certificate_on_conjugated_block_matrices"
RATIONAL = "tests/test_differential.py::test_rational_scalars_match_the_generic_tower_path"
UNIT_LEADS = "tests/test_differential.py::test_unit_leads_give_the_rref_of_unscaled_rows"
UNION = "tests/test_differential.py::test_classify_orbits_matches_pairwise_union"
FLAT = "tests/test_differential.py::test_only_groups_below_the_flat_rank_run_member_tests"
DEEP = "tests/test_differential.py::test_moved_functionals_are_members_beyond_class_3"
N5_GRID = "tests/test_differential.py::test_n5_grid_orbits_are_its_invariant_classes"
KERNEL = "tests/test_glinalg.py::test_kernel_matches_sympy_random"
PARITY_ROOTS = "tests/test_differential.py::test_parity_block_roots_match_the_whole_space_split"
MULTIPLICITIES = "tests/test_differential.py::test_rational_root_multiplicities_match_trial_division"
ISOTROPIC = ("tests/test_differential.py::"
             "test_sample_driven_isotropic_search_matches_the_three_stage_search")
PD_SEARCH = "tests/test_differential.py::test_pd_search_matches_the_scan_and_climb_it_replaced"
CONE_PINS = "tests/test_cones.py::test_cone_results_are_pinned"
LENGTH = "tests/test_cones.py::test_functionals_of_the_wrong_length_are_input_errors"
TRACE = "tests/test_differential.py::test_trace_prefilter_keeps_the_unfiltered_verdicts"
RECORD = "tests/test_differential.py::test_recorded_verdicts_are_per_algebra_and_subspace"
DENSE = "tests/test_differential.py::test_bracket_and_ad_match_the_dense_loops"
ROTATION = "tests/test_differential.py::test_check_axioms_matches_the_rotation_scan"
BRUTE_JACOBI = "tests/test_lsa.py::test_sparse_jacobi_matches_brute_force"
PARITY_BLOCKS = "tests/test_differential.py::test_parity_blocks_match_the_whole_matrix"
SAMPLED = "tests/test_differential.py::test_trace_form_verdict_never_contradicts_the_sampled_certificate"
PINNED = "tests/test_differential.py::test_pinned_commutant_solves_match_unpinned_ones"
CONTAINMENT = "tests/test_differential.py::test_ideal_containment_route_matches_the_pairwise_scan"
COSTS = "tests/test_orbits.py::test_classification_cost_counts"
UNDETERMINED_RUNS = "tests/test_cli.py::test_undetermined_reports_keep_inputs_and_budgets"
UNCAUGHT = "tests/test_cli.py::test_an_uncaught_undetermined_is_reported_undetermined"
DIMS = "tests/test_catalog.py::test_catalog_dims"
CATALOG_AXIOMS = "tests/test_catalog.py::test_catalog_axioms_and_cache"
CATALOG = "src/liecones/catalog.py"
CLI = "src/liecones/cli.py"
CLIFFREP = "src/liecones/cliffrep.py"
EXACTNUM = "src/liecones/exactnum.py"
HWM = "src/liecones/hwm.py"
CARTAN = "src/liecones/cartan.py"
CONES = "src/liecones/cones.py"
GLINALG = "src/liecones/glinalg.py"
LSA = "src/liecones/lsa.py"
ORBITS = "src/liecones/orbits.py"

MUTANTS = (
    Mutant("product drops a term", CLIFFREP,
           "acc[j] = acc[j] + t if j in acc else t",
           "acc[j] = t",
           (VERIFY,)),
    Mutant("zero entries kept in the sparse rows", CLIFFREP,
           "sparse = [M._sparse_rows() for M in rep.mats]",
           "sparse = [[dict(enumerate(r)) for r in M.rows] for M in rep.mats]",
           (VERIFY, AXIOMS)),
    Mutant("cancelled sums kept as zero entries", CLIFFREP,
           "out.append({j: x for j, x in r.items() if x})",
           "out.append(r)",
           (VERIFY, AXIOMS)),
    Mutant("even commutator added instead of subtracted", CLIFFREP,
           "negate=True) != rho(bracket(a, b))",
           "negate=False) != rho(bracket(a, b))",
           (VERIFY, AXIOMS)),
    Mutant("adjoint without conjugation", CLIFFREP,
           "-x.conjugate_i() if negate else x.conjugate_i()",
           "-x.conjugate_i() if negate else x",
           (VERIFY, AXIOMS)),
    Mutant("skew check without its sign", CLIFFREP,
           "-x.conjugate_i() if negate else x.conjugate_i()",
           "x.conjugate_i() if negate else x.conjugate_i()",
           (VERIFY, AXIOMS)),
    Mutant("inverted grading test", CLIFFREP,
           "((i < e) == (j < e)) == odd",
           "((i < e) == (j < e)) != odd",
           (VERIFY, AXIOMS)),
    Mutant("rho drops its coefficients", CLIFFREP,
           "terms = [(c, rows) for c, rows in zip(v, sparse) if c]",
           "terms = [(c, rows) for c, rows in zip(v, sparse) if c][:0]",
           (VERIFY, AXIOMS)),
    Mutant("all_ok not read off the failures", CLIFFREP,
           "failures=failures, all_ok=not failures)",
           "failures=failures, all_ok=report[\"grading_ok\"])",
           (VERIFY, "tests/test_cliffrep.py::test_verify_rep_catches_tampering")),
    Mutant("a flag read off the wrong axiom", CLIFFREP,
           "axiom not in failed for axiom in",
           "(\"hermitian_odd\" if axiom == \"skew_even\" else axiom) not in failed for axiom in",
           (VERIFY, "tests/test_cliffrep.py::test_verify_rep_group_conjugation_failure")),
    Mutant("the classification accepts a zero LDL pivot", CLIFFREP,
           "p.sign() <= 0 for p in pivots",
           "p.sign() < 0 for p in pivots",
           (ZERO_PIVOTS,)),
    Mutant("the classification accepts an LDL that stopped early", CLIFFREP,
           "if len(pivots) < d or any(",
           "if any(",
           (ZERO_PIVOTS,)),
    Mutant("the spin builder drops its scales", CLIFFREP,
           "G.scale(fld.rat(r) if s == 1 else fld.new(0, 0, r, 0))",
           "G",
           ("tests/test_cliffrep.py::test_clifford_module_single_sqrt_tower",
            "tests/test_cliffrep.py::test_classify_hc_with_symplectic_part",
            "tests/test_acceptance.py::test_criterion_6_thm72_reproduction")),
    Mutant("a non-real highest weight accepted", HWM,
           "if not all(x.is_real() for x in self.weight):",
           "if False:",
           ("tests/test_hwm.py::test_cartan_module_rejects_a_non_real_weight",)),
    Mutant("weight_in_cone accepts a non-integer m", HWM,
           "m.is_rational() and m.a.denominator == 1",
           "m.is_rational()",
           (CONE,)),
    Mutant("weight_in_cone accepts m past the budget", HWM,
           "0 <= m.a <= budget",
           "0 <= m.a",
           (CONE,)),
    Mutant("weight_in_cone accepts a negative m", HWM,
           "0 <= m.a <= budget",
           "m.a <= budget",
           (CONE,)),
    Mutant("the Cartan scan stops after its first yield", CARTAN,
           "if h0.dim == e:",
           "if True:",
           (f"{SCAN}[osp(1|2)]", f"{SCAN}[sl(2,R)]",
            "tests/test_cartan.py::test_root_decomposition_osp12")),
    Mutant("an UNDETERMINED centre verdict stops the scan no longer", CARTAN,
           "z + pad) is not True",
           "z + pad) is False",
           ("tests/test_cartan.py::test_undetermined_centre_verdict_stops_the_scan",)),
    Mutant("candidate_vectors yields one vector at cap 0", CARTAN,
           "    if cap <= 0:\n        return\n",
           "",
           ("tests/test_cartan.py::test_candidate_vectors_respect_a_zero_or_negative_cap",
            "tests/test_cli.py::test_zero_budget_and_cap_scan_nothing")),
    Mutant("the annihilating polynomial without its x factor when s(0) = 0", CARTAN,
           "return (r * M if k else r).is_zero()",
           "return r.is_zero()",
           (SPECTRAL, BLOCKS)),
    Mutant("the annihilating polynomial evaluated at ad(v), not ad(v)^2", CARTAN,
           "r = r * sq",
           "r = r * M",
           (SPECTRAL, BLOCKS)),
    Mutant("the Sturm sign test dropped", CARTAN,
           "if pos or neg + zero != s.degree:",
           "if neg + zero + pos != s.degree:",
           (BLOCKS,)),
    Mutant("the Sturm count of real roots dropped", CARTAN,
           "if pos or neg + zero != s.degree:",
           "if pos:",
           (BLOCKS,)),
    Mutant("the spectral test on the g0 block only", CARTAN,
           "for _, _, B, _ in _parity_blocks(g, M))",
           "for _, _, B, _ in _parity_blocks(g, M)[:1])",
           (SPECTRAL, PARITY_BLOCKS)),
    Mutant("the parity blocks without their grading re-check", CARTAN,
           "if any(any(r[e:]) if i < e else any(r[:e]) for i, r in enumerate(M.rows)):",
           "if False:",
           ("tests/test_cartan.py::test_parity_blocks_recheck_the_grading",)),
    Mutant("the trace form without its rank comparison", CARTAN,
           "\n            and sum(1 for p in pivots if p) == k0.dim - k0.intersect(center(g)).dim)",
           ")",
           (f"{SAMPLED}[e(2)]",
            "tests/test_cartan.py::test_non_abelian_k0_is_decided_by_its_trace_form")),
    Mutant("the trace form without its pivot sign check", CARTAN,
           "len(pivots) == k0.dim and all(p.sign() >= 0 for p in pivots)",
           "len(pivots) == k0.dim",
           (f"{SAMPLED}[sl(2,R)-elliptic]",
            "tests/test_cartan.py::test_non_abelian_k0_is_decided_by_its_trace_form")),
    Mutant("the Fitting null component on the g0 block only", CARTAN,
           "in _parity_blocks(g, g.ad(w))",
           "in _parity_blocks(g, g.ad(w))[:1]",
           (PARITY_BLOCKS, "tests/test_cartan.py::test_clifford_cartan_is_everything")),
    Mutant("the trace prefilter rejects tr((ad v)^2) <= 0", CARTAN,
           "if trace_sq >= 0 and not M.is_zero():",
           "if trace_sq <= 0 and not M.is_zero():",
           (SPECTRAL, BLOCKS, TRACE)),
    Mutant("a verdict recorded without the rows of its subspace", CARTAN,
           "key = (test.__name__, s.rows)",
           "key = (test.__name__,)",
           (RECORD,)),
    Mutant("ad writes entry [j][k] for [k][j]", LSA,
           "rows[k][j] += v[i] * c",
           "rows[j][k] += v[i] * c",
           (DENSE, EXP, TRANSPORTER)),
    Mutant("a negative --cap accepted", CLI,
           "if args.budget < 0 or args.cap < 0:",
           "if args.budget < 0:",
           ("tests/test_cli.py::test_malformed_input_exits_1_without_verdict",)),
    Mutant("the UNDETERMINED report drops its inputs", CLI,
           "    if code:\n        inputs, budgets = {}, {}\n",
           "    if True:\n        inputs, budgets = {}, {}\n",
           (UNDETERMINED_RUNS, UNCAUGHT)),
    Mutant("Undetermined maps to exit 1", CLI,
           'code, status, results = 0, "UNDETERMINED", {"error": str(exc)}',
           'code, status, results = 1, "UNDETERMINED", {"error": str(exc)}',
           (UNDETERMINED_RUNS, UNCAUGHT)),
    Mutant("the NotAdmissible clause catches nothing", CLI,
           "except orb.NotAdmissible as exc:",
           "except () as exc:",
           (UNDETERMINED_RUNS, "tests/test_cli.py::test_polarize_and_orbit_classify")),
    Mutant("the rational inverse returns a", EXACTNUM,
           "return _rat(self.field, 1 / self.a)",
           "return _rat(self.field, self.a)",
           (RATIONAL, KERNEL)),
    Mutant("the rational sum drops other.a", EXACTNUM,
           "return _rat(self.field, self.a + other.a)",
           "return _rat(self.field, self.a)",
           (RATIONAL, KERNEL)),
    Mutant("the unit-lead skip fires on every rational lead", GLINALG,
           "if lead != lead.field.one:",
           "if not lead.is_rational():",
           (UNIT_LEADS, KERNEL)),
    Mutant("elimination without back-substitution", GLINALG,
           "for p in piv.values():",
           "for p in ():",
           (KERNEL,
            "tests/test_glinalg.py::test_rref_idempotent_random")),
    Mutant("Subspace.reduce without its tower check", GLINALG,
           "            for x in v:\n                check_tower(used, x)\n",
           "            pass\n",
           ("tests/test_differential.py::test_kernels_keep_field_checks_on_zeros",)),
    Mutant("Hessenberg reduction without the pivot swap", GLINALG,
           "piv = next((i for i in range(m, n) if a[i][m - 1]), None)",
           "piv = m if a[m][m - 1] else None",
           ("tests/test_glinalg.py::test_charpoly_matches_faddeev_leverrier_random",)),
    Mutant("joint_eigenspaces stops at the first piece", GLINALG,
           "if filled == space.dim:",
           "if filled:",
           ("tests/test_glinalg.py::test_joint_eigenspaces_match_intersect_everything_random",)),
    Mutant("the root engine skips the odd block", CARTAN,
           "for blocks in zip(*per_row):",
           "for blocks in list(zip(*per_row))[:1]:",
           (f"{PARITY_ROOTS}[False-osp(1|2)]", f"{PARITY_ROOTS}[True-su(1,1|1,1)]",
            "tests/test_cartan.py::test_root_decomposition_osp12")),
    Mutant("root spaces store the odd rows as even and the even as odd", CARTAN,
           "Root(tuple(vals), gc.subspace(even_rows), gc.subspace(odd_rows))",
           "Root(tuple(vals), gc.subspace(odd_rows), gc.subspace(even_rows))",
           (f"{PARITY_ROOTS}[False-osp(1|2)]", f"{PARITY_ROOTS}[True-sq(1,1)]",
            "tests/test_cartan.py::test_root_decomposition_osp12")),
    Mutant("a rational factor's roots get multiplicity 1", GLINALG,
           "roots.update(dict.fromkeys(rts, mult))",
           "roots.update(dict.fromkeys(rts, 1))",
           tuple(f"{MULTIPLICITIES}[{tag}]" for tag in ("Q", "Q_i", "Q_sqrt(2)"))),
    Mutant("the commutant drops s on the A T term", GLINALG,
           "t = -a if s == 1 else a",
           "t = -a",
           (GCOMM, COMMUTANT)),
    Mutant("the commutant drops the T B term", GLINALG,
           "for j, b in b_rows[p].items():",
           "for j, b in ():",
           (GCOMM, COMMUTANT, INTERTWINERS, "tests/test_lsa.py::test_centroid_dims_paper_values",
            "tests/test_cliffrep.py::test_equivalence_parity_pairs")),
    Mutant("the identity assumed when some triple is not (M, M, 1)", GLINALG,
           "A is B and s == 1 for A, B, s in triples)",
           "s == 1 for A, B, s in triples)",
           (GCOMM,)),
    Mutant("the commutant solve stops one pivot early", GLINALG,
           "stop=len(positions) - known)",
           "stop=len(positions) - known - 1)",
           (COMMUTANT, PINNED, INTERTWINERS)),
    Mutant("block positions invert the parity test", GLINALG,
           "% 2 == parity]",
           "% 2 != parity]",
           (GCOMM, COMMUTANT)),
    Mutant("the transporter does not reduce [a, s] mod the target", LSA,
           "target.reduce(g.bracket(a, s))",
           "g.bracket(a, s)",
           (TRANSPORTER, TRANSPORTER_SL2)),
    Mutant("the transporter acts by the first vector only", LSA,
           "for a in acting:",
           "for a in acting[:1]:",
           (TRANSPORTER, TRANSPORTER_SL2)),
    Mutant("the transporter skips the source rows", LSA,
           "lin_comb(g.field, g.dim, sol, source.rows)",
           "lin_comb(g.field, g.dim, sol, g.full_space.rows)",
           (TRANSPORTER, TRANSPORTER_SL2)),
    Mutant("a repeated bracket pair accepted", LSA,
           "if (i, j) in br:",
           "if False:",
           ("tests/test_cli.py::test_malformed_input_exits_1_without_verdict",)),
    Mutant("wrong graded-Jacobi sign", LSA,
           "(pj * pi, (j, k, i))",
           "(pj * pk, (j, k, i))",
           (BRUTE_JACOBI, "tests/test_lsa.py::test_all_catalog_pass_axioms")),
    Mutant("sparse Jacobi drops a rotation", LSA,
           "for t in ((a, b, c), (b, c, a), (c, a, b))",
           "for t in ((a, b, c), (b, c, a))",
           (BRUTE_JACOBI, ROTATION)),
    Mutant("Jacobi on unordered triples without antisymmetry", LSA,
           "{tuple(sorted(t)) for t in T} if antisymmetry_ok else",
           "{tuple(sorted(t)) for t in T} if True else",
           (BRUTE_JACOBI, ROTATION)),
    Mutant("a Jacobi failure reported without its other orderings", LSA,
           "failed.update(permutations((i, j, k)) if antisymmetry_ok else [(i, j, k)])",
           "failed.update([(i, j, k)])",
           (BRUTE_JACOBI, ROTATION)),
    Mutant("the bracket form pairs v with u", LSA,
           "for m, c in g.c(i, j).items():",
           "for m, c in g.c(j, i).items():",
           (BRACKET_FORM, BRACKET_FORM_HC)),
    Mutant("the bracket form drops the coefficients of u", LSA,
           "acc = acc + a * b * t if acc else a * b * t",
           "acc = acc + b * t if acc else b * t",
           (BRACKET_FORM, BRACKET_FORM_HC)),
    Mutant("the ideal test accepts every subspace", LSA,
           'return s.contains_subspace(series(g, "lower_central")[:2][-1])',
           "return True",
           (f"{CONTAINMENT}[h(1)]", f"{CONTAINMENT}[su(1,1|1,1)]",
            "tests/test_lsa.py::test_quotient_examples")),
    Mutant("the containment test reads g for [g, g]", LSA,
           'series(g, "lower_central")[:2][-1]',
           'series(g, "lower_central")[0]',
           (COSTS,)),
    Mutant("the quotient skips its bracket loop without the containment", LSA,
           "enumerate(() if abelian else comp)",
           "enumerate(())",
           (f"{CONTAINMENT}[h(1)]", f"{CONTAINMENT}[osp(1|2)]", f"{POLARIZE}[hc(2|2,++)]")),
    Mutant("the direct kernel of lambda on m0 drops its pivot term", ORBITS,
           "vec_sub(b, vec_scale(c * inv, m0.rows[p])) if c else b",
           "b",
           (f"{POLARIZE}[h(1)]", f"{POLARIZE}[hc(2|2,++)]", f"{POLARIZE}[n4]")),
    Mutant("the normal-form step moves with the wrong sign", ORBITS,
           "t = -functional_value(cur, y[:e]) / col[k]",
           "t = functional_value(cur, y[:e]) / col[k]",
           (f"{DEEP}[n5]", f"{DEEP}[n6]", N5_GRID, "tests/test_orbits.py::test_coadjoint_member_h1",
            "tests/test_orbits.py::test_coadjoint_member_three_step_exact")),
    Mutant("the stabilizer is not shrunk after a jump", ORBITS,
           "s = [lin_comb(f, g.dim, sol, s) for sol in Matrix(f, [col]).kernel_basis()]",
           "pass",
           (f"{DEEP}[n6]",)),
    Mutant("the root-space form without the conjugation", CONES,
           "yield root, basis, [tuple(s.conjugate_i() for s in y) for y in basis]",
           "yield root, basis, basis",
           (ROOT_FORMS,)),
    Mutant("the hull step drops the projected route", CONES,
           "(label, v) for label, v in projected if not vec_is_zero(v)], notes)",
           "], notes)",
           ("tests/test_cones.py::test_star_reduced_sq11_line", f"{CONE_PINS}[sq(1,1)]")),
    Mutant("the climb steps upward only", CONES,
           "for sgn in (1, -1)):",
           "for sgn in (1,)):",
           (PD_SEARCH,)),
    Mutant("coerce_functional drops its length check", CONES,
           '    if len(lam) != g.space.even_dim:\n'
           '        raise InputError("functional length must equal the even dimension")\n',
           "",
           (f"{LENGTH}[short]", f"{LENGTH}[long]")),
    Mutant("the slices stop one index early", CONES,
           "for b in range(a + 1, d):",
           "for b in range(a + 1, d - 1):",
           (ISOTROPIC,)),
    Mutant("the isotropic scan skips the pair samples", CONES,
           "for label, v, sq in _odd_square_samples(g):",
           "for label, v, sq in list(_odd_square_samples(g))[:d]:",
           (ISOTROPIC,)),
    Mutant("the slice cross term is not doubled", CONES,
           "f.rat(2) * cross[k]",
           "cross[k]",
           (ISOTROPIC,)),
    Mutant("rank-0 functionals merged into one orbit", ORBITS,
           "orbits.extend(points.values())",
           "orbits.append(members)",
           ("tests/test_orbits.py::test_classify_h1_grid", UNION)),
    Mutant("every positive-rank group taken as one flat orbit", ORBITS,
           "if 0 < rank == flat:",
           "if 0 < rank:",
           (f"{UNION}[n4]", f"{FLAT}[n4]")),
    Mutant("non-flat groups split by the functional, not its normal form", ORBITS,
           "cands[i] if rank == 0 else _normal_form(g, cands[i])[0]",
           "cands[i]",
           (f"{UNION}[n4]", N5_GRID)),
    Mutant("flat groups sent to the member tests", ORBITS,
           "flat = e - zc.dim",
           "flat = e - zc.dim + 2",
           ("tests/test_orbits.py::test_classification_cost_counts", f"{FLAT}[hc(2|2,++)]",
            f"{FLAT}[flat]")),
    Mutant("the odd Gram memo keyed on [g0, g0]", ORBITS,
           "key = tuple(functional_value(lam, y[:e]) for y in g.odd_square.rows)",
           "key = tuple(functional_value(lam, y[:e]) for y in derived.rows)",
           (f"{KEYED}[n3super]",)),
    Mutant("every polarization realized as m = g", ORBITS,
           "whole = m0.dim == e",
           "whole = True",
           (f"{POLARIZE}[h(1)]", f"{POLARIZE}[hc(2|2,++)]", f"{POLARIZE}[n4]",
            "tests/test_orbits.py::test_polarizing_flag_h1")),
    Mutant("the isotropy test skipped also when m0 is not g0", ORBITS,
           "if not whole and not bracket_form(g, lam, m0.rows, m0.rows).is_zero():",
           "if False and not bracket_form(g, lam, m0.rows, m0.rows).is_zero():",
           ("tests/test_orbits.py::test_polarizing_system_from_m0_rejects_bad",)),
    Mutant("the exponential term reads c_ji for c_ij", ORBITS,
           "bracket_form(g0, term, [w_even], g0.full_space.rows).rows[0]",
           "bracket_form(g0, term, g0.full_space.rows, [w_even]).transpose().rows[0]",
           (f"{EXP}[h(1)]", f"{EXP}[n4]", f"{EXP}[n5]",
            "tests/test_orbits.py::test_coadjoint_member_three_step_exact")),
    Mutant("the exponential series drops its 1/k", ORBITS,
           "f.rat(Fraction(1, k))",
           "f.rat(Fraction(1, 1))",
           (f"{EXP}[n4]", f"{EXP}[n5]",
            "tests/test_orbits.py::test_coadjoint_member_three_step_exact")),
    Mutant("Matrix.zero drops its column count", GLINALG,
           "return Matrix(fld, [[fld.zero] * n for _ in range(m)], n)",
           "return Matrix(fld, [[fld.zero] * n for _ in range(m)])",
           ("tests/test_glinalg.py::test_row_less_matrices_keep_their_column_count",)),
    Mutant("the su supertrace dropped", CATALOG,
           "_solve_real_form(m, n, 0, [theta], traceless=True)",
           "_solve_real_form(m, n, 0, [theta])",
           (DIMS,)),
    Mutant("the sq swap map dropped", CATALOG,
           "maps = [theta, swap]",
           "maps = [theta]",
           (DIMS, CATALOG_AXIOMS)),
    Mutant("a real form solves M(X) = -X", CATALOG,
           "_flatten_real(M(B) - B)",
           "_flatten_real(M(B) + B)",
           (DIMS, CATALOG_AXIOMS)),
)


def failed_tests(root: str, tests: tuple[str, ...]) -> tuple[int, set[str]]:
    """Run the tests in root; return pytest's exit status and the node ids of
    the tests that failed or errored.  A test whose module fails to import or
    collect counts as failed; pytest then exits 2 or 4 without running the
    others, so they run again on their own."""
    env = dict(os.environ, PYTHONPATH=os.path.join(root, "src"))
    proc = subprocess.run([sys.executable, "-m", "pytest", "-q", "-rfE", "-p", "no:cacheprovider",
                           *tests], cwd=root, env=env, capture_output=True, text=True)
    lines = proc.stdout.splitlines()
    errors = {line.split()[1] for line in lines if line.startswith("ERROR ")}
    broken = ({t for t in tests if t.split("::")[0] in errors}
              if proc.returncode in (2, 4) else set())
    if broken:
        rest = tuple(t for t in tests if t not in broken)
        return proc.returncode, broken | (failed_tests(root, rest)[1] if rest else set())
    if proc.returncode not in (0, 1):       # interrupted, usage error, nothing collected
        raise RuntimeError(f"pytest exited {proc.returncode}:\n{proc.stdout}{proc.stderr}")
    return proc.returncode, {line.split()[1] for line in lines
                             if line.startswith(("FAILED ", "ERROR "))}


def run(m: Mutant) -> bool:
    """True when every test of the mutant fails on it."""
    with tempfile.TemporaryDirectory(prefix="mutant-") as tmp:
        for name in COPIED:
            src = os.path.join(ROOT, name)
            if os.path.isdir(src):
                shutil.copytree(src, os.path.join(tmp, name),
                                ignore=shutil.ignore_patterns("__pycache__"))
            else:
                shutil.copy(src, tmp)
        if failed_tests(tmp, m.tests)[0] != 0:
            raise RuntimeError(f"{m.name}: the tests fail without the mutation")
        path = os.path.join(tmp, m.path)
        with open(path) as f:
            text = f.read()
        if text.count(m.old) != 1:
            raise RuntimeError(f"{m.name}: the old snippet occurs {text.count(m.old)} times")
        with open(path, "w") as f:
            f.write(text.replace(m.old, m.new))
        failed = failed_tests(tmp, m.tests)[1]
        return all(any(f.startswith(t) for f in failed) for t in m.tests)


def main(files: list[str]) -> int:
    chosen = [m for m in MUTANTS
              if not files or any(("/" + m.path).endswith("/" + f) for f in files)]
    if not chosen:
        print(f"no mutant has its path in {' '.join(files)}", file=sys.stderr)
        return 2
    survivors = []
    for m in chosen:
        killed = run(m)
        print(f"{'killed  ' if killed else 'SURVIVED'}  {m.name}", flush=True)
        if not killed:
            survivors.append(m.name)
    print(f"{len(chosen) - len(survivors)} of {len(chosen)} mutants killed")
    return 1 if survivors else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
