"""Relativization: proofs over all individuals become proofs over the
realizable ones.

Formulas translate homomorphically except at quantifiers, which acquire a
realizability guard. Proof trees translate rule by rule: quantifier
introductions bind evidence for the guard, quantifier eliminations must
produce that evidence for the instantiating term (built compositionally from
the evidence axioms for the combinators and the bound-variable evidence in
scope), and axiom leaves are replayed from the corresponding axiom of the
guarded theory. Terms mentioning variables that appear in no formula get a
canonical instance at the root instead.
"""

from functools import lru_cache

from .errors import InternalError, UserError
from .lambdamu import freshen
from .logic import (
    And, AndElim, AndIntro, Atom, Ax, Bot, BotElim, BotIntro, CONSTANTS,
    Forall, ForallElim, ForallIntro, Formula, IApp, IConst, IOTA, IVar, Id,
    Imp, ImpElim, ImpIntro, KAPPA, Sequent, alpha_eq, check_proof,
    collect_names, f_rel, formula_sexp, fv_formula, rel_pred,
    relativized_counterpart, zero_ind,
)


@lru_cache(maxsize=256)
def rel_formula(f):
    """Guard every quantifier with the realizability predicate. A bounded
    pure memo, like logic.subst_var: f is interned, so the key hashes by
    identity, and a formula refused (one that holds rel) raises again on
    every call."""
    return _rel_formula(f)


def _rel_formula(f):
    """rel_formula(f) without the memo."""
    cls = f.__class__
    if cls is Imp:
        return Imp(_rel_formula(f.left), _rel_formula(f.right))
    if cls is Atom:
        if f.pred == "neq":
            return f
        if f.pred == "rel":
            raise UserError("formula is already relativized")
    elif cls is Bot:
        return f
    elif cls is Forall:
        x, sort = f.var, f.sort
        xv = IVar(x, sort)
        return Forall(x, sort, Imp(rel_pred(xv, sort), _rel_formula(f.body)))
    elif cls is And:
        return And(_rel_formula(f.left), _rel_formula(f.right))
    raise InternalError(f"bad formula {f!r}")


class _Relativizer:
    def __init__(self, theory, proof):
        self.theory = theory
        self.rtheory = relativized_counterpart(theory)
        self.avoid = collect_names(proof) | {KAPPA}
        self.dummies = {}  # var name -> (sort, hypothesis name)

    def fresh(self, base):
        n = freshen(base, self.avoid)
        self.avoid.add(n)
        return n

    # ---- evidence for individuals ----

    def dr(self, t, relenv):
        """Proof of rel_pred(t, sort of t) from the evidence in scope."""
        cls = t.__class__
        if cls is IApp:
            fn, arg = t.fn, t.arg
            return ImpElim(ForallElim(self.dr(fn, relenv), arg),
                           self.dr(arg, relenv))
        if cls is IVar:
            name, sort = t.name, t.sort
            if name in relenv:
                return Id(relenv[name])
            if name in self.dummies:
                dsort, hyp = self.dummies[name]
                if dsort != sort:
                    raise UserError(
                        f"variable {name} used at two sorts across the proof")
                return Id(hyp)
            hyp = self.fresh(f"r0_{name}")
            self.dummies[name] = (sort, hyp)
            return Id(hyp)
        if cls is IConst:
            return Ax(CONSTANTS[t.name][0], t.sort_args)
        raise InternalError(f"bad individual {t!r}")

    # ---- axiom leaves ----

    def _derive_closure(self, goal, src_formula, src_proof, core=None):
        """Derive a guarded closure from its unguarded counterpart by
        discarding the guards. Once both closures are peeled, a goal that is
        not the source is core(goal, source, proof of source) if core is
        given."""
        if alpha_eq(goal, src_formula):
            return src_proof
        match goal:
            case Forall(x, sort, Imp(guard, rest)) if alpha_eq(
                    guard, rel_pred(IVar(x, sort), sort)):
                # one scheme names the binders of both closures alike
                if (not isinstance(src_formula, Forall)
                        or src_formula.var != x or src_formula.sort != sort):
                    raise InternalError("axiom replay shape mismatch")
                inner = self._derive_closure(
                    rest, src_formula.body,
                    ForallElim(src_proof, IVar(x, sort)), core)
                return ForallIntro(x, sort, ImpIntro(self.fresh(f"r_{x}"),
                                                     guard, inner))
        if core is not None:
            return core(goal, src_formula, src_proof)
        raise InternalError(
            "axiom replay failed at " + formula_sexp(goal))

    def wrap_axiom(self, name, args):
        # not memoized like an axiom instance: a replay draws fresh names
        if name == "dc":
            return self._wrap_dc(args)
        target = rel_formula(self.theory.instantiate(name, args))
        args_r = tuple(
            rel_formula(a) if isinstance(a, Formula) else a for a in args)
        src = self.rtheory.instantiate(name, args_r)
        return self._derive_closure(target, src, Ax(name, args_r))

    def _wrap_dc(self, args):
        """Replay unguarded dependent choice from the guarded axiom whose
        instance formula carries the evidence of each chosen element and of
        its predecessor."""
        b, x, y, z = args
        sigma = y.sort
        self.avoid.update(fv_formula(b))  # no fresh name may be a parameter
        a_guarded = And(rel_pred(IVar(z.name, sigma), sigma),
                        And(rel_pred(IVar(y.name, sigma), sigma),
                            rel_formula(b)))
        args_r = (a_guarded, x, y, z)

        def core(goal, src, dc_elim):
            # goal: p1r -> x_neg -> bot; src: arg1 -> arg2 -> bot
            p1r, x_neg = goal.left, goal.right.left
            p_h, c_h = self.fresh("p"), self.fresh("c")
            s1 = self._dc_s1(src.left, p1r, p_h, x, y, z, sigma)
            out = ImpElim(ImpElim(dc_elim, s1),
                          self._dc_s2(src.right.left, c_h, x))
            return ImpIntro(p_h, p1r, ImpIntro(c_h, x_neg, out))

        return self._derive_closure(
            rel_formula(self.theory.instantiate("dc", args)),
            self.rtheory.instantiate("dc", args_r), Ax("dc", args_r), core)

    def _dc_s1(self, arg1, p1r, p_h, x, y, z, sigma):
        """First premise of the guarded axiom: the guarded step function.
        arg1 peels as forall x (r(x) -> forall y (R(y) ->
        (forall z not A -> forall x' A[x'/x, y/z])))."""
        rx_f = arg1.body.left
        rest1 = arg1.body.right
        ry_f = rest1.body.left
        rest2 = rest1.body.right
        hna_f = rest2.left
        xp_name = rest2.right.var
        diag_f = rest2.right.body
        inner_b = diag_f.right.right

        rx = self.fresh(f"r_{x.name}")
        ry = self.fresh(f"r_{y.name}")
        rz = self.fresh(f"r_{z.name}")
        hna = self.fresh("hna")
        hb = self.fresh("hb")
        dead = self.fresh("dead")

        xv, yv, zv = IVar(x.name, IOTA), IVar(y.name, sigma), IVar(z.name, sigma)
        zf = hna_f  # forall z not A
        a_inst = zf.body.left
        za = ForallIntro(
            z.name, sigma,
            ImpIntro(rz, a_inst.left,
                     ImpIntro(hb, a_inst.right.right,
                              ImpElim(ForallElim(Id(hna), zv),
                                      AndIntro(Id(rz),
                                               AndIntro(Id(ry), Id(hb)))))))
        pt = ImpElim(ForallElim(Id(p_h), xv), Id(rx))
        pt = ImpElim(ForallElim(pt, yv), Id(ry))
        contradiction = ImpElim(pt, za)
        diag_pf = AndIntro(
            Id(ry),
            AndIntro(Id(ry), BotElim(dead, inner_b, contradiction)))
        return ForallIntro(
            x.name, IOTA,
            ImpIntro(rx, rx_f,
                     ForallIntro(
                         y.name, sigma,
                         ImpIntro(ry, ry_f,
                                  ImpIntro(hna, hna_f,
                                           ForallIntro(xp_name, IOTA,
                                                       diag_pf))))))

    def _dc_s2(self, arg2, c_h, x):
        """Second premise: no guarded infinite sequence. arg2 peels as
        forall w not forall x (r(x) -> A[w x / y, w (S x) / z])."""
        w_name, w_sort = arg2.var, arg2.sort
        hstep_f = arg2.body.left
        wv = IVar(w_name, w_sort)
        xv = IVar(x.name, IOTA)

        hstep = self.fresh("hstep")
        v = self.fresh("v")
        rv = self.fresh(f"r_{v}")
        rx2 = self.fresh(f"rs_{x.name}")

        vv = IVar(v, IOTA)
        rw_pf = ForallIntro(
            v, IOTA,
            ImpIntro(rv, f_rel(vv),
                     AndElim(1, AndElim(2, ImpElim(
                         ForallElim(Id(hstep), vv), Id(rv))))))
        ct = ImpElim(ForallElim(Id(c_h), wv), rw_pf)
        bstep = ForallIntro(
            x.name, IOTA,
            ImpIntro(rx2, f_rel(xv),
                     AndElim(2, AndElim(2, ImpElim(
                         ForallElim(Id(hstep), xv), Id(rx2))))))
        return ForallIntro(w_name, w_sort,
                           ImpIntro(hstep, hstep_f, ImpElim(ct, bstep)))

    # ---- proof tree ----

    def go(self, p, relenv):
        cls = p.__class__
        if cls is ImpElim:
            return ImpElim(self.go(p.fn, relenv), self.go(p.arg, relenv))
        if cls is ForallElim:
            t = p.term
            return ImpElim(ForallElim(self.go(p.body, relenv), t),
                           self.dr(t, relenv))
        if cls is Ax:
            return self.wrap_axiom(p.name, p.args)
        if cls is ImpIntro:
            return ImpIntro(p.hyp, rel_formula(p.formula),
                            self.go(p.body, relenv))
        if cls is Id:
            return Id(p.hyp)
        if cls is ForallIntro:
            x, sort = p.var, p.sort
            rx = self.fresh(f"r_{x}")
            body = self.go(p.body, {**relenv, x: rx})
            return ForallIntro(
                x, sort,
                ImpIntro(rx, rel_pred(IVar(x, sort), sort), body))
        if cls is AndIntro:
            return AndIntro(self.go(p.left, relenv), self.go(p.right, relenv))
        if cls is AndElim:
            return AndElim(p.index, self.go(p.body, relenv))
        if cls is BotIntro:
            return BotIntro(p.label, self.go(p.body, relenv))
        if cls is BotElim:
            return BotElim(p.label, rel_formula(p.formula),
                           self.go(p.body, relenv))
        raise InternalError(f"bad proof node {p!r}")


def rel_proof(proof, theory, goal):
    """Translate a closed proof into the guarded theory. Returns the new
    proof, the guarded theory, and the new goal."""
    if fv_formula(goal.concl):
        raise UserError("relativization expects a closed conclusion")
    check_proof(proof, theory, goal)

    r = _Relativizer(theory, proof)
    body = r.go(proof, {})
    # variables that occur only inside instantiating terms never got bound
    # evidence; quantify them out and instantiate canonically
    for v, (sort, hyp) in reversed(list(r.dummies.items())):
        body = ForallIntro(v, sort,
                           ImpIntro(hyp, rel_pred(IVar(v, sort), sort), body))
    for v, (sort, hyp) in r.dummies.items():
        body = ImpElim(ForallElim(body, zero_ind(sort)),
                       r.dr(zero_ind(sort), {}))

    new_goal = Sequent(concl=rel_formula(goal.concl))
    return body, r.rtheory, new_goal
