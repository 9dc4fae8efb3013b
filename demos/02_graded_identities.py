"""Randomized audit of the graded-algebra identities.

Both sides of the story — polyvector fields with the Schouten bracket,
and polydifferential operators with the Gerstenhaber bracket — carry
differential graded Lie algebra structures once the Chevalley-Eilenberg
differential of the g-action is added.  This script runs the randomized
identity suite on the sl2 scenario and prints a small worked example of
each bracket.  A single value is a cochain of degree 0: the products and
brackets of cochains serve it, with every sign 1 on the empty index tuple.

Run with:  python demos/02_graded_identities.py
"""

from importlib import resources

from gman.calculus import PolyVector, ext_schouten
from gman.checks import run_axiom_checks
from gman.dpoly import PolyDiffOp, ext_gerstenhaber, hkr
from gman.liealg import Cochain
from gman.poly import Poly
from gman.scenario import load_scenario


def main():
    text = resources.files("gman.data").joinpath("sl2_linear.json").read_text()
    s = load_scenario(text)

    # A worked Schouten bracket on the plane: [x d_x /\ d_y, y d_x].
    n = 2
    x, y = Poly.var(n, 0), Poly.var(n, 1)

    def value(v):
        return Cochain(0, {(): v})

    a = value(PolyVector(n, {(0, 1): x}))
    b = value(PolyVector.vector_field([y, Poly(n)]))
    print("[x d_x^d_y, y d_x] =", ext_schouten(a, b))

    # The Hochschild differential [m, -] measures failure to be a derivation:
    m = value(PolyDiffOp.multiplication(n))
    dxx = value(PolyDiffOp(n, {((2, 0),): Poly.const(n, 1)}))
    print("d_H(d_x^2) =", ext_gerstenhaber(m, dxx))
    print("d_H vanishes on hkr images:",
          ext_gerstenhaber(m, value(hkr(PolyVector(n, {(0, 1): x})))).is_zero())

    # Gerstenhaber bracket of two vector fields is the usual bracket:
    v1 = value(PolyDiffOp.from_vector_field(PolyVector.vector_field([x, Poly(n)])))
    v2 = value(PolyDiffOp.from_vector_field(PolyVector.vector_field([Poly(n), y])))
    print("[x d_x, y d_y]_G =", ext_gerstenhaber(v1, v2))

    # The full randomized suite: antisymmetry, Jacobi, Leibniz, d^2 = 0
    # and the derivation properties of the CE differential, on both sides.
    report = run_axiom_checks(s, cases=80, seed=11)
    for side in ("tpoly", "dpoly"):
        r = report[side]
        print(f"{side}: {r['passed']}/{r['cases']} random cases passed")
    print("all identities hold:", report["all_passed"])


if __name__ == "__main__":
    main()
