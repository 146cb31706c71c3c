"""What each workload runs.  Shared by the input generator and the worker.

Why these workloads:
- group_stream: the compose/invert/commutator CLI path and the inner loop of
  the verify suites; algebra, partitions and serialize do the work, and the
  inputs share none of it.
- finite_groups: the lcs/sweep path; every element is composed with every
  other, so inputs share all their work (the |G|^2 Cayley table).
- hopf_laws: the hopf CLI extended to every basis monomial below a degree;
  tensor multiplies dominate, and the quotient presets kill products by caps.
- milnor_sweep: acceptance criterion 9's calls into the public Milnor
  predicates, in its proportions; only the milnor layer runs, so
  algebra-kernel changes should leave it unmoved.
"""

WORKLOADS = ("group_stream", "finite_groups", "hopf_laws", "milnor_sweep")

# Seed reserved for confirming a claimed gain after the change is written.
HELD_OUT_SEED = 20031415

# finite groups of at least this order take long enough for the machine's
# speed to change during one; the speed probe samples during them (probe.py)
PROBE_DURING_ORDER = 64
# speed-probe kernel of the workloads that do not use the dict kernel: over
# alternating runs the product kernel gave milnor_sweep the steadier figures,
# the dict kernel the others (see probe.py)
PROBE_KERNEL = {"milnor_sweep": "product"}

# -- group_stream --------------------------------------------------------------

# (p, density): "sparse" is verify.group_test_algebra(p), "dense" is A(4) for
# p = 2 and A(3)[eps] for p = 3.  Dense p = 5 is left out: its degree-1248
# component has 341 monomials, several times the other algebras' largest.
GROUP_ALGEBRAS = ((2, "sparse"), (2, "dense"), (3, "sparse"), (3, "dense"), (5, "sparse"))
GROUP_TRUNCATIONS = (4, 5, 6, 7, 8)
GROUP_OPS = (
    "compose",
    "commutator",
    "invert_recursive",
    "invert_closed",
    "invert_split",
    "rho",
    "filtration_level",
)
BINARY_OPS = ("compose", "commutator")


def group_ops(p):
    return [op for op in GROUP_OPS if p != 2 or op != "invert_split"]


# rounds in the input pool; a 10 s run uses about 26 of them today
GROUP_POOL_ROUNDS = 64

# -- finite_groups -------------------------------------------------------------

# (p, n, order, nilpotency class).  (5,1), (7,1), (2,4) and (3,2) are out of
# reach of one run at the commit that defined this benchmark.
FINITE_GROUPS = ((2, 1, 2, 1), (2, 2, 8, 1), (3, 0, 3, 1), (3, 1, 81, 2), (2, 3, 128, 2))
# rounds in the input pool; a 10 s run makes about five today
FINITE_POOL_ROUNDS = 24

# -- hopf_laws -----------------------------------------------------------------

# (id, preset, p, k, highest monomial degree); every preset has N = 4.  The
# degree bounds give each preset roughly half a second per pass.
HOPF_PRESETS = (
    ("ds2", "dual_steenrod", 2, 0, 14),
    ("ds3", "dual_steenrod", 3, 0, 29),
    ("ds5", "dual_steenrod", 5, 0, 65),
    ("J2_1", "dual_mod_J", 2, 1, 25),
    ("J2_2", "dual_mod_J", 2, 2, 16),
    ("J3_1", "dual_mod_J", 3, 1, 29),
    ("J3_2", "dual_mod_J", 3, 2, 29),
    ("L2_1", "level_algebra", 2, 1, 30),
    ("L2_2", "level_algebra", 2, 2, 60),
    ("L3_1", "level_algebra", 3, 1, 144),
    ("L3_2", "level_algebra", 3, 2, 540),
)
HOPF_N = 4
# rounds in the input pool, each a pass over every preset; a 10 s run makes
# three today
HOPF_POOL_ROUNDS = 8

# -- milnor_sweep --------------------------------------------------------------

# criterion 9's calls into the public predicates: (p, k, entry bound for
# R_1..R_4, length of E, tuples drawn).  A draw of None sweeps the whole grid
# once, as criterion 9 does; a number draws that many distinct tuples, as its
# spot checks at p = 3, k in {1, 2} do.  A round is one such pass:
# 256 + 4096 + 65536 + 209952 + 2000 + 2000 = 283840 tuples.
MILNOR_GRIDS = (
    (2, 0, 4, 0, None),
    (2, 1, 8, 0, None),
    (2, 2, 16, 0, None),
    (3, 0, 9, 5, None),
    (3, 1, 27, 5, 2000),
    (3, 2, 81, 5, 2000),
)
# tuples per timed block; a grid smaller than a block is one block
MILNOR_BLOCK = 2048
# passes in the input pool; a 10 s run makes about five today
MILNOR_POOL_ROUNDS = 16


def grid_size(grid):
    hi, e_len = grid[2], grid[3]
    return hi**4 * 2**e_len


def grid_tuple(grid, i):
    """The i-th (E, R) of a grid, in criterion 9's itertools.product order."""
    hi, e_len = grid[2], grid[3]
    if not 0 <= i < grid_size(grid):
        raise IndexError(i)
    E = ()
    if e_len:
        i, e = divmod(i, 2**e_len)
        E = tuple((e >> s) & 1 for s in range(e_len - 1, -1, -1))
    R = []
    for _ in range(4):
        i, r = divmod(i, hi)
        R.append(r)
    return E, tuple(reversed(R))
