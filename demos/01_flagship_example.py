"""The one-dimensional flagship scenario, end to end.

A single generator acts on the line by the weight-one vector field
Q = x^2 d/dx.  This walk-through computes the Atiyah cocycle for the
flat coordinate connection, shows that the obstruction to choosing an
invariant connection is genuinely unsolvable, and assembles the Todd
cocycle and its square root.

Run with:  python demos/01_flagship_example.py
"""

from gman.atiyah import (atiyah_cocycle, invariant_connection_obstruction,
                         is_ce_closed, todd_cocycle, todd_sqrt)
from importlib import resources

from gman.calculus import mixed_mul
from gman.scenario import load_scenario


def bundled(name):
    text = resources.files("gman.data").joinpath(name + ".json").read_text()
    return load_scenario(text)


def main():
    s = bundled("paper_sec4")
    print(f"scenario: {s.name}  (dim g = {s.dim_g}, dim M = {s.n})")
    print(f"action weights: {s.action_weights}")

    # The Atiyah cocycle of the flat connection.  For Q = x^2 d_x the
    # single End(TM)-valued component is the constant 2.
    r = atiyah_cocycle(s)
    print("\nAtiyah cocycle R(e_0):")
    for (i, j, k), p in sorted(r.terms[(0,)].terms.items()):
        print(f"  R(e_0, d_{i}) d_{j} = ({p}) d_{k}")
    print(f"Chevalley-Eilenberg closed: {is_ce_closed(s, r)}")

    # Is there an invariant connection at all?  Solving the linear
    # system Gamma must satisfy shows the class [R] is a genuine
    # obstruction: the right-hand side lands in an empty weight slice,
    # here with unknowns up to polynomial weight 10.
    ob = invariant_connection_obstruction(s._replace(caps=s.caps._replace(max_weight=10)))
    print(f"\ninvariant connection exists: {ob['solvable']}")
    for cert in ob["certificates"]:
        print(f"  certificate: tensor weight slice {cert['tensor_weight_slice']}"
              f" has {cert['unknown_dimension']} unknowns but rhs {cert['rhs']}")

    # Todd cocycle td = det(R / (1 - e^{-R})) and its square root.
    td = todd_cocycle(s)
    half = todd_sqrt(s)
    print("\nTodd cocycle terms:")
    for idx, form in sorted(td.terms.items()):
        for t, p in sorted(form.terms.items()):
            print(f"  e^{list(idx)} (x) ({p}) dx^{list(t)}")
    print(f"sqrt(td)^2 == td: {mixed_mul(half, half) == td}")


if __name__ == "__main__":
    main()
