"""Parenthesized surface syntax for sorts, formulas, individuals, proofs, and
programs, plus the declaration files the command line reads.

A file is a sequence of declarations:

    (theory <name>)
    (proof <name> (goal <formula>) <proof>)
    (term <name> <program>)

The grammar document FORMAT.md in the repository root is the normative
reference.  Printing any parsed object and re-parsing it yields a structurally
equal object.  Every object prints through lambdamu.write, which reads the
layout each syntax class declares next to its fields; logic, lambdamu and cps
name it after the syntax they print (formula_sexp, term_sexp, ...) so that
diagnostics there quote objects in this syntax.  This module re-exports those
names next to the reader, proof_sexp and the term declaration printer.
"""

import re
import sys
from dataclasses import dataclass, field

from .errors import InternalError, UserError
from .lambdamu import (
    LApp, Lam, LVar, Mu, NAT, Named, Num, Pair, Prim, Proj, TArr, TBOT,
    TProd, term_sexp, type_sexp, write,
)
from .logic import (
    And, AndElim, AndIntro, Atom, Ax, BOT, BotElim, BotIntro, CONSTANTS,
    Forall, ForallElim, ForallIntro, IApp, IConst, IOTA, IVar, Id, Imp,
    ImpElim, ImpIntro, MAX_DEPTH, SArrow, SCHEME_KINDS, Sequent, SUCC,
    THEORIES, ZERO, formula_sexp,
)

# ---------------------------------------------------------------- reader

# A file is read without positions first: the plain reader gives each atom
# as its text, a str, and each list as a list of its items, and the parse
# functions below run on that.  Only when the plain reader or a parse
# function finds an error does parse_source read the file again, with the
# positioned reader, whose atoms and lists are str and list subclasses that
# also carry the line and column they start at, and run the same parse
# functions once more: they stop at the same node, which now has a position
# to report.


class _Atom(str):
    __slots__ = ("line", "col")

    def __new__(cls, text, line, col):
        self = super().__new__(cls, text)
        self.line = line
        self.col = col
        return self


class _List(list):
    __slots__ = ("line", "col")

    def __init__(self, line, col):
        super().__init__()
        self.line = line
        self.col = col


class _NeedPositions(Exception):
    """A parse error found on nodes without positions."""


# A token within one line that has had its comment cut off: a parenthesis
# or an atom.  Space, tab and CR separate tokens; LF ends the line.
_TOKEN = re.compile(r"[()]|[^ \t\r();]+")


def _err(node, msg):
    if not isinstance(node, (_Atom, _List)):
        raise _NeedPositions
    raise UserError(f"{node.line}:{node.col}: {msg}")


def _read_plain(src):
    """The declarations of src as nested lists of str atoms; _NeedPositions
    on an unmatched or unclosed parenthesis."""
    nodes = items = []
    # the enclosing items of each list still open, innermost last
    open_lists = []
    findall = _TOKEN.findall
    for text in src.split("\n"):
        cut = text.find(";")
        for tok in findall(text, 0, len(text) if cut < 0 else cut):
            if tok == "(":
                open_lists.append(items)
                items = []
            elif tok == ")":
                if not open_lists:
                    raise _NeedPositions
                outer = open_lists.pop()
                outer.append(items)
                items = outer
            else:
                items.append(tok)
    if open_lists:
        raise _NeedPositions
    return nodes


def _read_all(src):
    """The declarations of src as _List and _Atom nodes; a positioned user
    error on an unmatched or unclosed parenthesis."""
    nodes = items = []
    # the enclosing items of each list still open, innermost last
    open_lists = []
    for line, text in enumerate(src.split("\n"), 1):
        cut = text.find(";")
        for m in _TOKEN.finditer(text, 0, len(text) if cut < 0 else cut):
            tok = m[0]
            if tok == "(":
                open_lists.append(items)
                items = _List(line, m.start() + 1)
            elif tok == ")":
                if not open_lists:
                    raise UserError(f"{line}:{m.start() + 1}: "
                                    f"unmatched closing parenthesis")
                outer = open_lists.pop()
                outer.append(items)
                items = outer
            else:
                items.append(_Atom(tok, line, m.start() + 1))
    if open_lists:
        raise UserError(f"{items.line}:{items.col}: unclosed parenthesis")
    return nodes


def _is_numeral(text):
    return text.isascii() and text.isdigit()


def digits_error(text):
    """Why int() and str() would refuse a digit string, or None: they refuse
    one longer than the interpreter's limit (0 means none; interpreters
    before 3.10.7 have no limit and no sys.get_int_max_str_digits).  A
    numeral stays a digit below it, so the value that eval reaches from it
    by succ steps still prints."""
    limit = getattr(sys, "get_int_max_str_digits", lambda: 0)()
    if limit and len(text) >= limit:
        return f"has {len(text)} digits; at most {limit - 1} are supported"


def _head(node, what):
    if not isinstance(node, list) or not node \
            or not isinstance(node[0], str):
        _err(node, f"expected a parenthesized {what}")
    return node[0]


def _sym(node, what):
    if not isinstance(node, str):
        _err(node, f"expected {what}")
    return node


def _arity(node, n):
    if len(node) != n + 1:
        _err(node, f"{node[0]} takes {n} argument(s)")


# The parse functions below recurse once per nesting level of the input, and
# no deeper: the command line turns the RecursionError of an input nested
# too deeply into a user error.
#
# The formulas, individuals and sorts of a proof declaration and the types of
# a program are also bounded by the depth of the tree they build, which long
# arrows, long applications and numeral individuals make deeper than the
# input nests.  The depth argument of a parse function is the depth of the
# node it builds in that tree: a root has depth 0, a child is one deeper
# than its parent.  Comparing or hashing two program types recurses in C
# once per level, which on a default 8 MB stack overflows past about 12 500
# levels, before the interpreter's recursion limit is reached.  The logic
# syntax compares by identity, but its walks recurse once per level too, and
# its constructors refuse trees deeper than the same bound (logic.MAX_DEPTH).


def _check_depth(node, depth):
    if depth > MAX_DEPTH:
        _err(node, f"nests more than {MAX_DEPTH} levels deep")


# ----------------------------------------------------------------- sorts


def parse_sort(node, depth=0):
    _check_depth(node, depth)
    if isinstance(node, str):
        if node == "iota":
            return IOTA
    elif node and isinstance(node[0], str) and node[0] == "->":
        if len(node) < 3:
            _err(node, "sort arrow needs at least two arguments")
        out = parse_sort(node[-1], depth + len(node) - 2)
        for i in range(len(node) - 2, 0, -1):
            out = SArrow(parse_sort(node[i], depth + i), out)
        return out
    _err(node, "expected a sort")


# ----------------------------------------------------------- individuals

# constant -> number of sort arguments, for the constants that take some;
# the others are atoms that read as their one shared node
_CONST_SORT_ARITY = {c: len(SCHEME_KINDS[ax])
                     for c, (ax, _) in CONSTANTS.items() if SCHEME_KINDS[ax]}
_NULLARY = {c: IConst(c) for c in CONSTANTS if c not in _CONST_SORT_ARITY}

# a numeral individual is read as that many nested S applications
_MAX_IND_NUMERAL = 10000


def parse_individual(node, scope, depth=0):
    _check_depth(node, depth)
    if isinstance(node, str):
        const = _NULLARY.get(node)
        if const is not None:
            return const
        if _is_numeral(node):
            digits = node.lstrip("0") or "0"
            # the length test keeps a long digit string away from int()
            if len(digits) > len(str(_MAX_IND_NUMERAL)) \
                    or int(digits) > _MAX_IND_NUMERAL:
                _err(node, f"numeral individuals are limited to "
                           f"{_MAX_IND_NUMERAL}")
            n = int(digits)
            _check_depth(node, depth + n)
            out = ZERO
            for _ in range(n):
                out = IApp(SUCC, out)
            return out
        if node not in scope:
            _err(node, f"unknown identifier {node}")
        sort = scope[node]
        if sort is not IOTA:
            _check_depth(node, depth + 1 + sort._depth)
        return IVar(node, sort)
    if not node:
        _err(node, "expected an individual")
    first = node[0]
    if isinstance(first, str) and first in _CONST_SORT_ARITY:
        want = _CONST_SORT_ARITY[first]
        if len(node) != want + 1:
            _err(node, f"constant {first} takes {want} sort "
                       f"argument(s)")
        return IConst(first,
                      tuple([parse_sort(a, depth + 1) for a in node[1:]]))
    if len(node) == 1:
        _err(node, "empty application")
    # (f a1 .. an) is n nested applications, f innermost
    n = len(node) - 1
    out = parse_individual(first, scope, depth + n)
    for i in range(1, n + 1):
        out = IApp(out, parse_individual(node[i], scope, depth + n + 1 - i))
    return out


# -------------------------------------------------------------- formulas


def _parse_binder(node, what, depth):
    """(name <sort>) pairs used by all binding constructs; depth is that of
    the sort in its tree."""
    if not isinstance(node, list) or len(node) != 2:
        _err(node, f"expected a (name sort) binder for {what}")
    name = _sym(node[0], "a variable name")
    if name in CONSTANTS or _is_numeral(name):  # a constant's name
        _err(node[0], f"{name} is reserved and cannot be bound")
    return name, parse_sort(node[1], depth)


def parse_formula(node, scope, depth=0):
    _check_depth(node, depth)
    if isinstance(node, str):
        if node == "bot":
            return BOT
    elif node and isinstance(node[0], str):
        head = node[0]
        n = len(node) - 1
        if head == "neq":
            if n != 2:
                _err(node, "neq takes two individuals")
            return Atom("neq", (parse_individual(node[1], scope, depth + 1),
                                parse_individual(node[2], scope, depth + 1)))
        if head == "=":
            if n != 2:
                _err(node, "= takes two individuals")
            return Imp(Atom("neq", (
                parse_individual(node[1], scope, depth + 2),
                parse_individual(node[2], scope, depth + 2))), BOT)
        if head == "rel":
            if n != 1:
                _err(node, "rel takes one individual")
            return Atom("rel", (parse_individual(node[1], scope, depth + 1),))
        if head == "->":
            if n < 2:
                _err(node, "formula arrow needs at least two arguments")
            out = parse_formula(node[-1], scope, depth + n - 1)
            for i in range(n - 1, 0, -1):
                out = Imp(parse_formula(node[i], scope, depth + i), out)
            return out
        if head == "not":
            if n != 1:
                _err(node, "not takes one formula")
            return Imp(parse_formula(node[1], scope, depth + 1), BOT)
        if head == "/\\":
            if n != 2:
                _err(node, "/\\ takes two formulas")
            return And(parse_formula(node[1], scope, depth + 1),
                       parse_formula(node[2], scope, depth + 1))
        if head == "all" or head == "exists":
            if n != 2:
                _err(node, f"{head} takes a binder and a body")
            # exists reads as (-> (all (x s) (-> a bot)) bot): its sort
            # lies one level deeper than under all, its body two
            ex = head == "exists"
            name, sort = _parse_binder(node[1], head, depth + 1 + ex)
            body = parse_formula(node[2], {**scope, name: sort},
                                 depth + 1 + 2 * ex)
            if not ex:
                return Forall(name, sort, body)
            return Imp(Forall(name, sort, Imp(body, BOT)), BOT)
    _err(node, "expected a formula")


# ---------------------------------------------------------------- proofs


def _parse_ax(node, scope):
    if len(node) < 2:
        _err(node, "ax needs a scheme name")
    name = _sym(node[1], "an axiom scheme name")
    kinds = SCHEME_KINDS.get(name)
    if kinds is None:
        _err(node[1], f"unknown axiom scheme {name}")
    argnodes = node[2:]
    if len(argnodes) != len(kinds):
        _err(node, f"axiom {name} takes {len(kinds)} argument(s)")
    # Variable arguments extend the scope the formula arguments read.
    inner = dict(scope)
    vs = {}
    for kind, a in zip(kinds, argnodes):
        if kind == "v":
            vname, vsort = _parse_binder(a, f"axiom {name}", 1)
            inner[vname] = vsort
            vs[id(a)] = IVar(vname, vsort)
    args = []
    for kind, a in zip(kinds, argnodes):
        if kind == "s":
            args.append(parse_sort(a))
        elif kind == "f":
            args.append(parse_formula(a, inner))
        else:
            args.append(vs[id(a)])
    return Ax(name, tuple(args))


def parse_proof(node, scope):
    head = _head(node, "proof")
    match head:
        case "id":
            _arity(node, 1)
            return Id(_sym(node[1], "a hypothesis name"))
        case "ax":
            return _parse_ax(node, scope)
        case "imp-intro":
            _arity(node, 2)
            b = node[1]
            if not isinstance(b, list) or len(b) != 2:
                _err(b, "expected a (name formula) binder")
            h = _sym(b[0], "a hypothesis name")
            f = parse_formula(b[1], scope)
            return ImpIntro(h, f, parse_proof(node[2], scope))
        case "imp-elim":
            _arity(node, 2)
            return ImpElim(parse_proof(node[1], scope),
                           parse_proof(node[2], scope))
        case "and-intro":
            _arity(node, 2)
            return AndIntro(parse_proof(node[1], scope),
                            parse_proof(node[2], scope))
        case "and-elim":
            _arity(node, 2)
            i = _sym(node[1], "a projection index")
            if i not in ("1", "2"):
                _err(node[1], "and-elim index must be 1 or 2")
            return AndElim(int(i), parse_proof(node[2], scope))
        case "forall-intro":
            _arity(node, 2)
            name, sort = _parse_binder(node[1], "forall-intro", 0)
            body = parse_proof(node[2], {**scope, name: sort})
            return ForallIntro(name, sort, body)
        case "forall-elim":
            _arity(node, 2)
            return ForallElim(parse_proof(node[1], scope),
                              parse_individual(node[2], scope))
        case "bot-intro":
            _arity(node, 2)
            return BotIntro(_sym(node[1], "a label name"),
                            parse_proof(node[2], scope))
        case "bot-elim":
            _arity(node, 2)
            b = node[1]
            if not isinstance(b, list) or len(b) != 2:
                _err(b, "expected a (label formula) binder")
            lab = _sym(b[0], "a label name")
            f = parse_formula(b[1], scope)
            return BotElim(lab, f, parse_proof(node[2], scope))
    _err(node, f"unknown proof form {head}")


proof_sexp = write


# -------------------------------------------------------------- programs

_RESERVED_TERM_NAMES = {"succ", "pred", "star"}


def parse_type(node, depth=0):
    _check_depth(node, depth)
    if isinstance(node, str):
        if node == "nat":
            return NAT
        if node == "bot":
            return TBOT
    elif node and isinstance(node[0], str):
        head = node[0]
        if head == "->":
            if len(node) < 3:
                _err(node, "type arrow needs at least two arguments")
            out = parse_type(node[-1], depth + len(node) - 2)
            for i in range(len(node) - 2, 0, -1):
                out = TArr(parse_type(node[i], depth + i), out)
            return out
        if head == "*":
            if len(node) != 3:
                _err(node, "* takes two types")
            return TProd(parse_type(node[1], depth + 1),
                         parse_type(node[2], depth + 1))
    _err(node, "expected a type")


def parse_term(node):
    if isinstance(node, str):
        if _is_numeral(node):
            msg = digits_error(node)
            if msg:
                _err(node, "numeral " + msg)
            return Num(int(node))
        if node == "succ" or node == "pred":
            return Prim(node)
        return LVar(node)
    if node and isinstance(node[0], str):
        head = node[0]
        if head == "app":
            if len(node) < 3:
                _err(node, "app needs a function and arguments")
            out = parse_term(node[1])
            for a in node[2:]:
                out = LApp(out, parse_term(a))
            return out
        if head == "lam":
            _arity(node, 2)
            name, ty = _parse_term_binder(node[1])
            return Lam(name, ty, parse_term(node[2]))
        if head == "ifz" or head == "fix":
            _arity(node, 1)
            return Prim(head, parse_type(node[1]))
        if head == "pair":
            _arity(node, 2)
            return Pair(parse_term(node[1]), parse_term(node[2]))
        if head == "proj":
            _arity(node, 2)
            i = _sym(node[1], "a projection index")
            if i not in ("1", "2"):
                _err(node[1], "proj index must be 1 or 2")
            return Proj(int(i), parse_term(node[2]))
        if head == "mu":
            _arity(node, 2)
            name, ty = _parse_term_binder(node[1])
            return Mu(name, ty, parse_term(node[2]))
        if head == "named":
            _arity(node, 2)
            return Named(_sym(node[1], "a label name"),
                         parse_term(node[2]))
    _err(node, "expected a program")


def _parse_term_binder(node):
    if not isinstance(node, list) or len(node) != 2:
        _err(node, "expected a (name type) binder")
    name = _sym(node[0], "a variable name")
    if name in _RESERVED_TERM_NAMES or _is_numeral(name):
        _err(node[0], f"{name} is reserved and cannot be bound")
    return name, parse_type(node[1])


# ------------------------------------------------------------ toplevel


@dataclass
class Workspace:
    theory_name: str = "paw"
    proofs: dict = field(default_factory=dict)  # name -> (Sequent, Proof)
    terms: dict = field(default_factory=dict)   # name -> Term

    @property
    def theory(self):
        return THEORIES[self.theory_name]


def parse_source(src):
    try:
        return _parse_declarations(_read_plain(src))
    except _NeedPositions:
        pass
    # the same checks, in the same order, stop at the same node and raise
    # its positioned UserError; run outside the handler so that the error
    # does not chain _NeedPositions
    _parse_declarations(_read_all(src))
    raise InternalError("a parse error vanished when the input was read "
                        "again with positions")


def _parse_declarations(nodes):
    ws = Workspace()
    saw_theory = False
    for node in nodes:
        head = _head(node, "declaration")
        rest = node[1:]
        if head == "theory":
            if saw_theory:
                _err(node, "theory already declared")
            if len(rest) != 1:
                _err(node, "theory takes one name")
            name = _sym(rest[0], "a theory name")
            if name not in THEORIES:
                _err(rest[0], f"unknown theory {name}")
            ws.theory_name = name
            saw_theory = True
        elif head == "proof":
            if len(rest) != 3:
                _err(node, "proof takes a name, a goal, and a derivation")
            name = _sym(rest[0], "a proof name")
            if name in ws.proofs or name in ws.terms:
                _err(rest[0], f"duplicate declaration {name}")
            gnode = rest[1]
            if _head(gnode, "goal") != "goal" or len(gnode) != 2:
                _err(gnode, "expected (goal <formula>)")
            goal = Sequent(concl=parse_formula(gnode[1], {}))
            ws.proofs[name] = (goal, parse_proof(rest[2], {}))
        elif head == "term":
            if len(rest) != 2:
                _err(node, "term takes a name and a program")
            name = _sym(rest[0], "a term name")
            if name in ws.proofs or name in ws.terms:
                _err(rest[0], f"duplicate declaration {name}")
            ws.terms[name] = parse_term(rest[1])
        else:
            _err(node, f"unknown declaration {head}")
    return ws


def parse_file(path):
    try:
        with open(path, encoding="utf-8") as fh:
            src = fh.read()
    except (OSError, UnicodeDecodeError) as ex:
        raise UserError(f"cannot read {path}: {ex}") from None
    try:
        return parse_source(src)
    except UserError as ex:
        raise UserError(f"{path}:{ex}") from None


def term_decl(name, term):
    return f"(term {name} {term_sexp(term)})\n"
