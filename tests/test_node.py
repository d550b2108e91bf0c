"""The syntax trees' base class `lambdamu.Node`.

Node classes keep the semantics of the frozen dataclasses they replaced:
class-exact field-wise equality, the hash of the field tuple, the dataclass
repr and class patterns. The sorts, individuals and formulas of `logic` are
interned instead: equal fields give the same node, whose hash is the
identity hash. Every node is a dataclass instance whose `vars()` are exactly
its fields (bench/spans.count_nodes counts nodes that way), so the facts an
interned node carries stay out of them."""

import dataclasses
import gc

import pytest

from mupcf import cps, extract, lambdamu, logic
from mupcf.errors import UserError
from mupcf.lambdamu import NAT, TArr, TBOT, TProd, Node
from mupcf.logic import (
    And, Atom, BOT, BaseSort, Bot, Forall, IApp, IConst, IOTA, IVar, Imp,
    SArrow, SUCC, ZERO, arrow, f_neq,
)

MODULES = (lambdamu, logic, cps, extract)

# two lists of field values for each interned class that can be built
SAMPLES = {
    BaseSort: (["iota"], ["o"]),
    SArrow: ([IOTA, IOTA], [IOTA, arrow(IOTA, IOTA)]),
    IVar: (["x", IOTA], ["y", IOTA]),
    IConst: (["0", ()], ["k", (IOTA, IOTA)]),
    IApp: ([SUCC, ZERO], [SUCC, IApp(SUCC, ZERO)]),
    Bot: ([], []),
    Atom: (["neq", (ZERO, ZERO)], ["rel", (ZERO,)]),
    Imp: ([BOT, BOT], [f_neq(ZERO, ZERO), BOT]),
    And: ([BOT, BOT], [BOT, f_neq(ZERO, ZERO)]),
    Forall: (["x", IOTA, BOT], ["y", IOTA, BOT]),
}
INTERNED_BASES = (logic.Sort, logic.Individual, logic.Formula)


def _node_classes():
    out, todo = [], [Node]
    while todo:
        cls = todo.pop()
        todo.extend(cls.__subclasses__())
        if cls is not Node:
            out.append(cls)
    return out


def _interned(cls):
    return "_table" in vars(cls)


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
        if _interned(cls):
            continue
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


def test_the_logic_syntax_is_interned():
    interned = {c for c in _node_classes() if _interned(c)}
    assert interned == set(SAMPLES) | set(INTERNED_BASES)
    for cls, (vals, other) in SAMPLES.items():
        old = _old_style(cls)
        n, o = cls(*vals), old(*vals)
        assert repr(n) == repr(o)
        assert cls(*vals) is n and hash(n) == object.__hash__(n)
        assert n == cls(*vals) and not (n != cls(*vals))
        assert (n == cls(*other)) == (not vals)
        assert n != tuple(vals) and n != o
        assert cls.__match_args__ == old.__match_args__
        assert dataclasses.is_dataclass(n)
        assert vars(n) == dict(zip(cls.__match_args__, vals))
    # defaults and keywords reach the same node
    assert IConst("0") is IConst("0", ()) is IConst(name="0", sort_args=())
    assert IVar(sort=IOTA, name="x") is IVar("x", IOTA)


def test_equality_is_class_exact():
    a, b = f_neq(ZERO, IVar("x", IOTA)), BOT
    assert Imp(a, b) != And(a, b)
    assert TArr(NAT, TBOT) != TProd(NAT, TBOT)
    assert Imp(a, b) is Imp(f_neq(ZERO, IVar("x", IOTA)), Bot())
    assert TArr(NAT, TBOT) == TArr(NAT, TBOT)
    assert len({Imp(a, b), And(a, b), Imp(a, b)}) == 2


def test_hash_is_the_hash_of_the_field_tuple():
    """Except on an interned node, whose hash is the identity hash."""
    t = TArr(NAT, TProd(NAT, TBOT))
    assert hash(t) == hash((t.left, t.right))
    assert hash(t.right) == hash((NAT, TBOT))
    assert hash(lambdamu.TNat()) == hash(())
    p = logic.ImpIntro("h", BOT, logic.Id("h"))
    assert hash(p) == hash(("h", BOT, p.body))
    f = Imp(f_neq(IApp(SUCC, IVar("x", IOTA)), ZERO), BOT)
    for n in (f, f.left, f.left.args[0], BOT, IOTA):
        assert hash(n) == object.__hash__(n)


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
    # the facts live outside the fields
    assert c._sort == arrow(IOTA, IOTA, IOTA) and c._fv == {}
    assert BOT._fv == {} and BOT._rel is False


def test_intern_tables_hold_only_live_nodes():
    """Each table holds weak references and loses an entry when its node
    dies, so it is no unbounded memo."""
    classes = [cls for cls in _node_classes() if _interned(cls)]
    tables = [cls._table for cls in classes]
    # the constants below would evict the sorts this memo keeps alive
    logic._const_sort.cache_clear()
    gc.collect()
    before = [len(t) for t in tables]
    built = []
    for i in range(10000):
        b = BaseSort(f"b{i}")
        f = IVar(f"f{i}", SArrow(b, IOTA))
        x = IVar(f"x{i}", b)
        built.append(Forall(
            f"x{i}", b,
            Imp(And(f_neq(IApp(f, x), ZERO), BOT),
                Atom("neq", (IConst(f"c{i}"), x)))))
    grown = {cls for cls, t, n in zip(classes, tables, before)
             if len(t) - n >= 10000}
    assert grown == set(SAMPLES) - {Bot}
    del built, b, f, x
    gc.collect()
    assert [len(t) for t in tables] == before


def test_construction_refuses_trees_past_the_depth_bound():
    """A built formula or individual may nest MAX_DEPTH levels deep, as a
    read one may, and no deeper."""
    f, t = BOT, ZERO
    for _ in range(logic.MAX_DEPTH):
        f, t = Imp(BOT, f), IApp(SUCC, t)
    assert f._depth == t._depth == logic.MAX_DEPTH
    for build, what in ((lambda: And(f, BOT), "a formula"),
                        (lambda: f_neq(t, ZERO), "a formula"),
                        (lambda: IApp(SUCC, t), "an individual")):
        with pytest.raises(UserError) as ex:
            build()
        assert str(ex.value) == (f"{what} would nest more than "
                                 f"{logic.MAX_DEPTH} levels deep")
