"""The benchmark's workloads: fixed lists of `hochschild` CLI invocations.

Each case is (case_id, argv).  The argv is exactly what a user would pass
to the `hochschild` executable; its stdout and exit code are pinned by
the golden files in bench/golden/.  Case sizes are chosen so that one
pass over a workload takes a few seconds on a 2-core box, which leaves
room for several passes (and so for medians) inside one run.
"""


def _table(degree, ring):
    return ("table-d%d-%s" % (degree, ring),
            ["table", "--degree", str(degree), "--ring", ring, "--expected"])


def _compute(algebra, ring, method, max_degree, moduli=False):
    argv = ["compute", "--algebra", algebra, "--ring", ring,
            "--max-degree", str(max_degree)]
    if method != "auto":
        argv += ["--method", method]
    tag = "moduli" if moduli else method
    if moduli:
        argv.append("--moduli")
    return ("%s-%s-%s-%d" % (algebra, ring, tag, max_degree), argv)


WORKLOADS = {
    "tables": {
        "why": ("the paper's headline tables: many small algebras, so "
                "orchestration, complex assembly and the d.d check dominate "
                "and large-matrix elimination is a minority"),
        "cases": [_table(d, r) for d in (2, 3)
                  for r in ("Q", "F2", "F3", "Z")],
    },
    "z-ladder": {
        "why": ("integer torsion of heavier complexes: the sparse Smith form "
                "and rank over Q of an integer complex carry the time"),
        "cases": [
            _compute("S11", "Z", "reduced", 5),
            _compute("N3", "Z", "reduced", 5),
            _compute("J5", "Z", "reduced", 3),
        ],
    },
    "field-ladder": {
        "why": ("the same elimination layer over fields: mod-2/3 shortcut, "
                "bitset F2/F3 rank and exact rank over Q, with word-complex "
                "assembly a large share"),
        "cases": [
            _compute("S11", "Q", "reduced", 5),
            _compute("S11", "F2", "reduced", 6),
            _compute("S11", "F3", "reduced", 5),
            _compute("N3", "Q", "reduced", 5),
        ],
    },
    "large-n": {
        "why": ("algebras with n = 7 and the moduli report: validation, "
                "the n^2 x n^2 bimodule and the normalizer dominate, so the "
                "cost of scaling in n shows"),
        "cases": [
            _compute("B7", "Q", "auto", 3, moduli=True),
            _compute("D7", "Q", "auto", 3, moduli=True),
            _compute("J7", "Q", "auto", 3, moduli=True),
        ],
    },
}


def all_cases():
    """Every (case_id, argv) over all workloads, in definition order."""
    return [c for w in WORKLOADS.values() for c in w["cases"]]
