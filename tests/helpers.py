"""Shared test helpers: small IR programs used across test modules."""

from __future__ import annotations

from repro.ir import FnBuilder, Module


def sum_to_n_module(n: int = 10) -> Module:
    """main: sum 1..n into global 'out'."""
    m = Module("sum_to_n")
    m.add_global("out", 1)
    b = FnBuilder(m, "main")
    total = b.li(0, name="total")
    i = b.li(1, name="i")
    limit = b.li(n, name="limit")
    out = b.la("out")
    b.block("loop")
    b.add(total, i, dest=total)
    b.add(i, 1, dest=i)
    b.br("ble", i, limit, "loop")
    b.block("exit")
    b.store(total, out, 0)
    b.halt()
    b.done()
    return m


def call_module() -> Module:
    """main calls square(7) and adds 1; result in global 'out'."""
    m = Module("call_demo")
    m.add_global("out", 1)

    b = FnBuilder(m, "square", params=[("i", "x")], ret="i")
    (x,) = b.params
    sq = b.mul(x, x)
    b.ret(sq)
    b.done()

    b = FnBuilder(m, "main")
    r = b.call("square", [7], ret="i")
    r2 = b.add(r, 1)
    b.store(r2, b.la("out"), 0)
    b.halt()
    b.done()
    return m


def call_chain_module() -> Module:
    """main calls cube(5), which calls square; result (125) in global 'out'."""
    m = Module("call_chain_demo")
    m.add_global("out", 1)

    b = FnBuilder(m, "square", params=[("i", "x")], ret="i")
    (x,) = b.params
    b.ret(b.mul(x, x))
    b.done()

    b = FnBuilder(m, "cube", params=[("i", "x")], ret="i")
    (x,) = b.params
    b.ret(b.mul(b.call("square", [x], ret="i"), x))
    b.done()

    b = FnBuilder(m, "main")
    b.store(b.call("cube", [5], ret="i"), b.la("out"), 0)
    b.halt()
    b.done()
    return m


def fp_module() -> Module:
    """main: out = 1.5 * 2.0 + 0.25 (double precision)."""
    m = Module("fp_demo")
    m.add_global("fout", 1)
    b = FnBuilder(m, "main")
    a = b.fli(1.5)
    c = b.fli(2.0)
    d = b.fmul(a, c)
    e = b.fli(0.25)
    f = b.fadd(d, e)
    b.fstore(f, b.la("fout"), 0)
    b.halt()
    b.done()
    return m


def diamond_module() -> Module:
    """main with an if/else diamond writing 1 or 2 to 'out' based on 'sel'."""
    m = Module("diamond")
    m.add_global("sel", 1, [1])
    m.add_global("out", 1)
    b = FnBuilder(m, "main")
    sel = b.load(b.la("sel"), 0)
    b.br("bnez", sel, target="then")
    b.block("else_")
    v = b.li(2, name="v")
    b.jmp("join")
    b.block("then")
    b.li(1, dest=v)
    b.jmp("join")
    b.block("join")
    b.store(v, b.la("out"), 0)
    b.halt()
    b.done()
    return m
