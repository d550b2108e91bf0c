"""The syntax trees' base class `lambdamu.Node` keeps the semantics of the
frozen dataclasses it replaced: class-exact field-wise equality, the hash of
the field tuple, the dataclass repr, class patterns, and a dataclass
instance whose `vars()` are exactly its fields (bench/spans.count_nodes
counts nodes that way)."""

import dataclasses

from mupcf import cps, extract, lambdamu, logic
from mupcf.lambdamu import NAT, TArr, TBOT, TProd, Node
from mupcf.logic import (
    And, Atom, BOT, Bot, IApp, IConst, IOTA, IVar, Imp, SUCC, ZERO, f_neq,
)

MODULES = (lambdamu, logic, cps, extract)


def _node_classes():
    out, todo = [], [Node]
    while todo:
        cls = todo.pop()
        todo.extend(cls.__subclasses__())
        if cls is not Node:
            out.append(cls)
    return out


def _old_style(cls):
    """The frozen dataclass each node class used to be, with its fields."""
    return dataclasses.make_dataclass(
        cls.__qualname__,
        [(f.name, f.type, dataclasses.field(default=f.default))
         if f.default is not dataclasses.MISSING else (f.name, f.type)
         for f in dataclasses.fields(cls)],
        frozen=True)


def test_node_classes_keep_the_frozen_dataclass_methods():
    classes = _node_classes()
    assert {c.__module__ for c in classes} == {m.__name__ for m in MODULES}
    for cls in classes:
        old = _old_style(cls)
        k = len(dataclasses.fields(cls))
        vals, other = list(range(k)), [f"v{i}" for i in range(k)]
        n, o = cls(*vals), old(*vals)
        assert repr(n) == repr(o)
        assert hash(n) == hash(o) == hash(tuple(vals))
        assert n == cls(*vals) and not (n != cls(*vals))
        assert (n == cls(*other)) == (k == 0)
        assert n != tuple(vals) and n != o
        assert cls.__match_args__ == old.__match_args__
        assert dataclasses.is_dataclass(n)
        assert vars(n) == dict(zip(cls.__match_args__, vals))


def test_equality_is_class_exact():
    a, b = f_neq(ZERO, IVar("x", IOTA)), BOT
    assert Imp(a, b) != And(a, b)
    assert TArr(NAT, TBOT) != TProd(NAT, TBOT)
    assert Imp(a, b) == Imp(f_neq(ZERO, IVar("x", IOTA)), Bot())
    assert len({Imp(a, b), And(a, b), Imp(a, b)}) == 2


def test_hash_is_the_hash_of_the_field_tuple():
    f = Imp(f_neq(IApp(SUCC, IVar("x", IOTA)), ZERO), BOT)
    assert hash(f) == hash((f.left, f.right))
    assert hash(f.left) == hash(("neq", f.left.args))
    assert hash(BOT) == hash(())


def test_repr_has_the_dataclass_format_with_defaults():
    assert repr(IConst("0")) == "IConst(name='0', sort_args=())"
    assert repr(lambdamu.Prim("succ")) == "Prim(op='succ', ty=None)"
    assert repr(Imp(Atom("rel", (ZERO,)), BOT)) == (
        "Imp(left=Atom(pred='rel', args=(IConst(name='0', sort_args=()),)), "
        "right=Bot())")


def test_class_patterns_match_positionally():
    f = Imp(Atom("neq", (ZERO, SUCC)), BOT)
    match f:
        case Imp(Atom(p, (IConst("0"), IConst(s))), Bot()):
            assert (p, s) == ("neq", "S")
        case _:
            raise AssertionError(f)
    match TArr(NAT, TProd(NAT, TBOT)):
        case TArr(lambdamu.TNat(), TProd(_, r)):
            assert r == TBOT
        case _:
            raise AssertionError


def test_vars_hold_exactly_the_fields_with_defaults():
    c = IConst("k", (IOTA, IOTA))
    assert vars(IConst("0")) == {"name": "0", "sort_args": ()}
    assert vars(c) == {"name": "k", "sort_args": (IOTA, IOTA)}
    assert dataclasses.is_dataclass(c) and vars(BOT) == {}
