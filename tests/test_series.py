from fractions import Fraction

import sympy

from gman.series import log_todd_generator_series

F = Fraction


def test_log_todd_generator_against_sympy():
    x = sympy.symbols("x")
    nterms = 9
    expr = sympy.log(x / (1 - sympy.exp(-x)))
    ser = sympy.series(expr, x, 0, nterms).removeO()
    want = [F(0)] + [F(str(sympy.nsimplify(ser.coeff(x, k))))
                     for k in range(1, nterms)]
    got = log_todd_generator_series(nterms)
    assert got == want
    assert got[:5] == [F(0), F(1, 2), F(-1, 24), F(0), F(1, 2880)]
