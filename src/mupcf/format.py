"""Parenthesized surface syntax for sorts, formulas, individuals, proofs, and
programs, plus the declaration files the command line reads.

A file is a sequence of declarations:

    (theory <name>)
    (proof <name> (goal <formula>) <proof>)
    (term <name> <program>)

The grammar document FORMAT.md in the repository root is the normative
reference.  Printing any parsed object and re-parsing it yields a structurally
equal object.  The printers of sorts, individuals and formulas live in logic,
those of types and programs in lambdamu, so that diagnostics there can quote
objects in this syntax; this module re-exports them next to the reader, the
proof printer and the declaration printers.
"""

from dataclasses import dataclass, field

from .errors import InternalError, UserError
from .lambdamu import (
    LApp, Lam, LVar, Mu, NAT, Named, Num, Pair, Prim, Proj, TArr, TBOT,
    TProd, term_sexp, type_sexp,
)
from .logic import (
    And, AndElim, AndIntro, Atom, Ax, BOT, BaseSort, BotElim, BotIntro,
    Forall, ForallElim, ForallIntro, IApp, IConst, IOTA, IVar, Id, Imp,
    ImpElim, ImpIntro, SArrow, Sequent, SUCC, THEORIES, ZERO, formula_sexp,
    ind_sexp, sort_sexp,
)

# ---------------------------------------------------------------- reader


@dataclass(frozen=True)
class _Atom:
    text: str
    line: int
    col: int


@dataclass(frozen=True)
class _List:
    items: tuple
    line: int
    col: int


def _err(node, msg):
    raise UserError(f"{node.line}:{node.col}: {msg}")


def _tokenize(src):
    line, col = 1, 1
    i, n = 0, len(src)
    out = []
    while i < n:
        c = src[i]
        if c == "\n":
            line += 1
            col = 1
            i += 1
        elif c in " \t\r":
            col += 1
            i += 1
        elif c == ";":
            while i < n and src[i] != "\n":
                i += 1
        elif c in "()":
            out.append((c, line, col))
            col += 1
            i += 1
        else:
            j = i
            while j < n and src[j] not in " \t\r\n();":
                j += 1
            out.append((src[i:j], line, col))
            col += j - i
            i = j
    return out


def _read_all(src):
    nodes = []
    # items, line and column of each list still open, innermost last
    open_lists = []
    for text, line, col in _tokenize(src):
        if text == "(":
            open_lists.append(([], line, col))
            continue
        if text == ")":
            if not open_lists:
                raise UserError(f"{line}:{col}: unmatched closing parenthesis")
            items, line, col = open_lists.pop()
            node = _List(tuple(items), line, col)
        else:
            node = _Atom(text, line, col)
        (open_lists[-1][0] if open_lists else nodes).append(node)
    if open_lists:
        _, line, col = open_lists[-1]
        raise UserError(f"{line}:{col}: unclosed parenthesis")
    return nodes


def _head(node, what):
    if not isinstance(node, _List) or not node.items \
            or not isinstance(node.items[0], _Atom):
        _err(node, f"expected a parenthesized {what}")
    return node.items[0].text


def _sym(node, what):
    if not isinstance(node, _Atom):
        _err(node, f"expected {what}")
    return node.text


# ----------------------------------------------------------------- sorts


def parse_sort(node):
    match node:
        case _Atom("iota"):
            return IOTA
        case _List((first, *rest)) if isinstance(first, _Atom) \
                and first.text == "->":
            if len(rest) < 2:
                _err(node, "sort arrow needs at least two arguments")
            out = parse_sort(rest[-1])
            for a in reversed(rest[:-1]):
                out = SArrow(parse_sort(a), out)
            return out
    _err(node, "expected a sort")


# ----------------------------------------------------------- individuals

_CONST_SORT_ARITY = {"k": 2, "s": 3, "rec": 1}


def parse_individual(node, scope):
    match node:
        case _Atom("0"):
            return ZERO
        case _Atom("S"):
            return SUCC
        case _Atom(text) if text.isdigit():
            out = ZERO
            for _ in range(int(text)):
                out = IApp(SUCC, out)
            return out
        case _Atom(text):
            if text not in scope:
                _err(node, f"unknown identifier {text}")
            return IVar(text, scope[text])
        case _List((first, *rest)) if isinstance(first, _Atom) \
                and first.text in _CONST_SORT_ARITY:
            want = _CONST_SORT_ARITY[first.text]
            if len(rest) != want:
                _err(node, f"constant {first.text} takes {want} sort "
                           f"argument(s)")
            return IConst(first.text, tuple(parse_sort(a) for a in rest))
        case _List((first, *rest)):
            if not rest:
                _err(node, "empty application")
            out = parse_individual(first, scope)
            for a in rest:
                out = IApp(out, parse_individual(a, scope))
            return out
    _err(node, "expected an individual")


# -------------------------------------------------------------- formulas


_RESERVED_IND_NAMES = {"0", "S", "k", "s", "rec"}


def _parse_binder(node, what):
    """(name <sort>) pairs used by all binding constructs."""
    if not (isinstance(node, _List) and len(node.items) == 2):
        _err(node, f"expected a (name sort) binder for {what}")
    name = _sym(node.items[0], "a variable name")
    if name in _RESERVED_IND_NAMES or name.isdigit():
        _err(node.items[0], f"{name} is reserved and cannot be bound")
    return name, parse_sort(node.items[1])


def parse_formula(node, scope):
    match node:
        case _Atom("bot"):
            return BOT
        case _List((first, *rest)) if isinstance(first, _Atom):
            head = first.text
            if head == "neq":
                if len(rest) != 2:
                    _err(node, "neq takes two individuals")
                return Atom("neq", (parse_individual(rest[0], scope),
                                    parse_individual(rest[1], scope)))
            if head == "=":
                if len(rest) != 2:
                    _err(node, "= takes two individuals")
                return Imp(Atom("neq", (parse_individual(rest[0], scope),
                                        parse_individual(rest[1], scope))),
                           BOT)
            if head == "rel":
                if len(rest) != 1:
                    _err(node, "rel takes one individual")
                return Atom("rel", (parse_individual(rest[0], scope),))
            if head == "->":
                if len(rest) < 2:
                    _err(node, "formula arrow needs at least two arguments")
                out = parse_formula(rest[-1], scope)
                for a in reversed(rest[:-1]):
                    out = Imp(parse_formula(a, scope), out)
                return out
            if head == "not":
                if len(rest) != 1:
                    _err(node, "not takes one formula")
                return Imp(parse_formula(rest[0], scope), BOT)
            if head == "/\\":
                if len(rest) != 2:
                    _err(node, "/\\ takes two formulas")
                return And(parse_formula(rest[0], scope),
                           parse_formula(rest[1], scope))
            if head in ("all", "exists"):
                if len(rest) != 2:
                    _err(node, f"{head} takes a binder and a body")
                name, sort = _parse_binder(rest[0], head)
                body = parse_formula(rest[1], {**scope, name: sort})
                if head == "all":
                    return Forall(name, sort, body)
                return Imp(Forall(name, sort, Imp(body, BOT)), BOT)
    _err(node, "expected a formula")


# ---------------------------------------------------------------- proofs

# Scheme argument kinds: s = sort, f = formula, v = sorted variable.
_AX_KINDS = {
    "refl": "s",
    "leib": "fvv",
    "s-neq-0": "",
    "ind": "fv",
    "def-s": "sss",
    "def-k": "ss",
    "def-rec-0": "s",
    "def-rec-s": "s",
    "rel-0": "",
    "rel-succ": "",
    "rel-k": "ss",
    "rel-s": "sss",
    "rel-rec": "s",
    "dc": "fvvv",
}


def _parse_ax(node, scope):
    rest = node.items[1:]
    if not rest:
        _err(node, "ax needs a scheme name")
    name = _sym(rest[0], "an axiom scheme name")
    kinds = _AX_KINDS.get(name)
    if kinds is None:
        _err(rest[0], f"unknown axiom scheme {name}")
    argnodes = rest[1:]
    if len(argnodes) != len(kinds):
        _err(node, f"axiom {name} takes {len(kinds)} argument(s)")
    # Variable arguments extend the scope the formula arguments read.
    inner = dict(scope)
    vs = {}
    for kind, a in zip(kinds, argnodes):
        if kind == "v":
            vname, vsort = _parse_binder(a, f"axiom {name}")
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
    rest = node.items[1:]

    def arity(n):
        if len(rest) != n:
            _err(node, f"{head} takes {n} argument(s)")

    match head:
        case "id":
            arity(1)
            return Id(_sym(rest[0], "a hypothesis name"))
        case "ax":
            return _parse_ax(node, scope)
        case "imp-intro":
            arity(2)
            if not (isinstance(rest[0], _List) and len(rest[0].items) == 2):
                _err(rest[0], "expected a (name formula) binder")
            h = _sym(rest[0].items[0], "a hypothesis name")
            f = parse_formula(rest[0].items[1], scope)
            return ImpIntro(h, f, parse_proof(rest[1], scope))
        case "imp-elim":
            arity(2)
            return ImpElim(parse_proof(rest[0], scope),
                           parse_proof(rest[1], scope))
        case "and-intro":
            arity(2)
            return AndIntro(parse_proof(rest[0], scope),
                            parse_proof(rest[1], scope))
        case "and-elim":
            arity(2)
            i = _sym(rest[0], "a projection index")
            if i not in ("1", "2"):
                _err(rest[0], "and-elim index must be 1 or 2")
            return AndElim(int(i), parse_proof(rest[1], scope))
        case "forall-intro":
            arity(2)
            name, sort = _parse_binder(rest[0], "forall-intro")
            body = parse_proof(rest[1], {**scope, name: sort})
            return ForallIntro(name, sort, body)
        case "forall-elim":
            arity(2)
            return ForallElim(parse_proof(rest[0], scope),
                              parse_individual(rest[1], scope))
        case "bot-intro":
            arity(2)
            return BotIntro(_sym(rest[0], "a label name"),
                            parse_proof(rest[1], scope))
        case "bot-elim":
            arity(2)
            if not (isinstance(rest[0], _List) and len(rest[0].items) == 2):
                _err(rest[0], "expected a (label formula) binder")
            lab = _sym(rest[0].items[0], "a label name")
            f = parse_formula(rest[0].items[1], scope)
            return BotElim(lab, f, parse_proof(rest[1], scope))
    _err(node, f"unknown proof form {head}")


def proof_sexp(p):
    match p:
        case Id(name):
            return f"(id {name})"
        case Ax(name, args):
            parts = [name]
            for a in args:
                if isinstance(a, IVar):
                    parts.append(f"({a.name} {sort_sexp(a.sort)})")
                elif isinstance(a, (BaseSort, SArrow)):
                    parts.append(sort_sexp(a))
                else:
                    parts.append(formula_sexp(a))
            return "(ax " + " ".join(parts) + ")"
        case ImpIntro(h, f, b):
            return f"(imp-intro ({h} {formula_sexp(f)}) {proof_sexp(b)})"
        case ImpElim(a, b):
            return f"(imp-elim {proof_sexp(a)} {proof_sexp(b)})"
        case AndIntro(a, b):
            return f"(and-intro {proof_sexp(a)} {proof_sexp(b)})"
        case AndElim(i, b):
            return f"(and-elim {i} {proof_sexp(b)})"
        case ForallIntro(x, s, b):
            return f"(forall-intro ({x} {sort_sexp(s)}) {proof_sexp(b)})"
        case ForallElim(b, t):
            return f"(forall-elim {proof_sexp(b)} {ind_sexp(t)})"
        case BotIntro(lab, b):
            return f"(bot-intro {lab} {proof_sexp(b)})"
        case BotElim(lab, f, b):
            return f"(bot-elim ({lab} {formula_sexp(f)}) {proof_sexp(b)})"
    raise InternalError(f"bad proof {p!r}")


# -------------------------------------------------------------- programs

_RESERVED_TERM_NAMES = {"succ", "pred", "star"}


def parse_type(node):
    match node:
        case _Atom("nat"):
            return NAT
        case _Atom("bot"):
            return TBOT
        case _List((first, *rest)) if isinstance(first, _Atom):
            if first.text == "->":
                if len(rest) < 2:
                    _err(node, "type arrow needs at least two arguments")
                out = parse_type(rest[-1])
                for a in reversed(rest[:-1]):
                    out = TArr(parse_type(a), out)
                return out
            if first.text == "*":
                if len(rest) != 2:
                    _err(node, "* takes two types")
                return TProd(parse_type(rest[0]), parse_type(rest[1]))
    _err(node, "expected a type")


def parse_term(node):
    match node:
        case _Atom(text) if text.isdigit():
            return Num(int(text))
        case _Atom("succ"):
            return Prim("succ")
        case _Atom("pred"):
            return Prim("pred")
        case _Atom(text):
            return LVar(text)
        case _List((first, *rest)) if isinstance(first, _Atom):
            head = first.text

            def arity(n):
                if len(rest) != n:
                    _err(node, f"{head} takes {n} argument(s)")

            if head == "ifz":
                arity(1)
                return Prim("ifz", parse_type(rest[0]))
            if head == "fix":
                arity(1)
                return Prim("fix", parse_type(rest[0]))
            if head == "lam":
                arity(2)
                name, ty = _parse_term_binder(rest[0])
                return Lam(name, ty, parse_term(rest[1]))
            if head == "app":
                if len(rest) < 2:
                    _err(node, "app needs a function and arguments")
                out = parse_term(rest[0])
                for a in rest[1:]:
                    out = LApp(out, parse_term(a))
                return out
            if head == "pair":
                arity(2)
                return Pair(parse_term(rest[0]), parse_term(rest[1]))
            if head == "proj":
                arity(2)
                i = _sym(rest[0], "a projection index")
                if i not in ("1", "2"):
                    _err(rest[0], "proj index must be 1 or 2")
                return Proj(int(i), parse_term(rest[1]))
            if head == "mu":
                arity(2)
                name, ty = _parse_term_binder(rest[0])
                return Mu(name, ty, parse_term(rest[1]))
            if head == "named":
                arity(2)
                return Named(_sym(rest[0], "a label name"),
                             parse_term(rest[1]))
    _err(node, "expected a program")


def _parse_term_binder(node):
    if not (isinstance(node, _List) and len(node.items) == 2):
        _err(node, "expected a (name type) binder")
    name = _sym(node.items[0], "a variable name")
    if name in _RESERVED_TERM_NAMES or name.isdigit():
        _err(node.items[0], f"{name} is reserved and cannot be bound")
    return name, parse_type(node.items[1])


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
    ws = Workspace()
    saw_theory = False
    for node in _read_all(src):
        head = _head(node, "declaration")
        rest = node.items[1:]
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
            if _head(gnode, "goal") != "goal" or len(gnode.items) != 2:
                _err(gnode, "expected (goal <formula>)")
            goal = Sequent(concl=parse_formula(gnode.items[1], {}))
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
    except OSError as ex:
        raise UserError(f"cannot read {path}: {ex}") from None
    try:
        return parse_source(src)
    except UserError as ex:
        raise UserError(f"{path}:{ex}") from None


def proof_decl(name, goal, proof):
    return (f"(proof {name}\n"
            f"  (goal {formula_sexp(goal.concl)})\n"
            f"  {proof_sexp(proof)})\n")


def term_decl(name, term):
    return f"(term {name} {term_sexp(term)})\n"
