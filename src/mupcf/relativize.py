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

from .errors import InternalError, UserError
from .lambdamu import freshen
from .logic import (
    And, AndElim, AndIntro, Atom, Ax, Bot, BotElim, BotIntro, Forall,
    ForallElim, ForallIntro, Formula, IApp, IConst, IOTA, IVar, Id, Imp,
    ImpElim, ImpIntro, KAPPA, Sequent, THEORIES, _scheme_params, alpha_eq,
    check_proof, collect_names, f_rel, formula_sexp, fv_formula,
    ind_free_vars, infer_sort, rel_pred, relativized_counterpart,
    subst_formula, zero_ind,
)


def rel_formula(f):
    """Guard every quantifier with the realizability predicate."""
    match f:
        case Bot() | Atom("neq", _):
            return f
        case Atom("rel", _):
            raise UserError("formula is already relativized")
        case Imp(a, b):
            return Imp(rel_formula(a), rel_formula(b))
        case And(a, b):
            return And(rel_formula(a), rel_formula(b))
        case Forall(x, sort, b):
            xv = IVar(x, sort)
            return Forall(x, sort, Imp(rel_pred(xv, sort), rel_formula(b)))
    raise InternalError(f"bad formula {f!r}")


class _Relativizer:
    def __init__(self, theory, proof):
        self.theory = theory
        self.rtheory = relativized_counterpart(theory)
        self.avoid = collect_names(proof) | {KAPPA}
        self.dummies = {}  # var name -> (sort, hypothesis name)
        # (theory name, axiom name, args) -> instance. The instances are
        # pure; the replayed subproofs are not kept, as they draw fresh names
        self.instances = {}

    def instance(self, theory, name, args):
        key = (theory.name, name, args)
        if key not in self.instances:
            self.instances[key] = theory.instantiate(name, args)
        return self.instances[key]

    def fresh(self, base):
        n = freshen(base, self.avoid)
        self.avoid.add(n)
        return n

    # ---- evidence for individuals ----

    def dr(self, t, relenv):
        """Proof of rel_pred(t, sort of t) from the evidence in scope."""
        match t:
            case IVar(name, sort):
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
            case IConst("0", ()):
                return Ax("rel-0", ())
            case IConst("S", ()):
                return Ax("rel-succ", ())
            case IConst("k", sorts):
                return Ax("rel-k", sorts)
            case IConst("s", sorts):
                return Ax("rel-s", sorts)
            case IConst("rec", sorts):
                return Ax("rel-rec", sorts)
            case IApp(fn, arg):
                return ImpElim(ForallElim(self.dr(fn, relenv), arg),
                               self.dr(arg, relenv))
        raise InternalError(f"bad individual {t!r}")

    # ---- axiom leaves ----

    def _derive_closure(self, goal, src_formula, src_proof):
        """Derive a guarded closure from its unguarded counterpart by
        discarding the guards."""
        if alpha_eq(goal, src_formula):
            return src_proof
        match goal:
            case Forall(x, sort, Imp(guard, rest)) if alpha_eq(
                    guard, rel_pred(IVar(x, sort), sort)):
                if not isinstance(src_formula, Forall) or src_formula.sort != sort:
                    raise InternalError("axiom replay shape mismatch")
                xv = IVar(x, sort)
                inner = self._derive_closure(
                    rest,
                    subst_formula(src_formula.body, {src_formula.var: xv}),
                    ForallElim(src_proof, xv))
                return ForallIntro(x, sort, ImpIntro(self.fresh(f"r_{x}"),
                                                     guard, inner))
        raise InternalError(
            "axiom replay failed at " + formula_sexp(goal))

    def wrap_axiom(self, name, args):
        if name == "dc":
            return self._wrap_dc(args)
        target = rel_formula(self.instance(self.theory, name, args))
        args_r = tuple(
            rel_formula(a) if isinstance(a, Formula) else a for a in args)
        src = self.instance(self.rtheory, name, args_r)
        return self._derive_closure(target, src, Ax(name, args_r))

    def _wrap_dc(self, args):
        """Replay unguarded dependent choice from the guarded axiom whose
        instance formula carries the evidence of each chosen element and of
        its predecessor."""
        b, x, y, z = args
        sigma = y.sort
        b_r = rel_formula(b)
        a_guarded = And(rel_pred(IVar(z.name, sigma), sigma),
                        And(rel_pred(IVar(y.name, sigma), sigma), b_r))
        args_r = (a_guarded, x, y, z)

        target = rel_formula(self.instance(self.theory, "dc", args))
        cawr_inst = self.instance(self.rtheory, "dc", args_r)
        params = _scheme_params(b, {x.name, y.name, z.name})

        # peel the parameter closures off both statements in lockstep
        cur_t, cur_c = target, cawr_inst
        dc_elim = Ax("dc", args_r)
        outer = []
        for d, ds in params:
            guard = cur_t.body.left
            outer.append((d, ds, self.fresh(f"r_{d}"), guard))
            cur_t = cur_t.body.right
            cur_c = cur_c.body
            dc_elim = ForallElim(dc_elim, IVar(d, ds))

        p1r, c_rel = cur_t.left, cur_t.right
        x_neg = c_rel.left  # forall w (R(w) -> not forall x (r(x) -> B step))
        arg1, arg2 = cur_c.left, cur_c.right.left

        p_h = self.fresh("p")
        c_h = self.fresh("c")
        core = ImpElim(ImpElim(dc_elim,
                               self._dc_s1(arg1, p1r, p_h, x, y, z, sigma)),
                       self._dc_s2(arg2, c_h, x))
        out = ImpIntro(p_h, p1r, ImpIntro(c_h, x_neg, core))
        for d, ds, rd, guard in reversed(outer):
            out = ForallIntro(d, ds, ImpIntro(rd, guard, out))
        return out

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
        match p:
            case Id(h):
                return Id(h)
            case Ax(name, args):
                return self.wrap_axiom(name, args)
            case ImpIntro(h, f, b):
                return ImpIntro(h, rel_formula(f), self.go(b, relenv))
            case ImpElim(fn, arg):
                return ImpElim(self.go(fn, relenv), self.go(arg, relenv))
            case AndIntro(l, r):
                return AndIntro(self.go(l, relenv), self.go(r, relenv))
            case AndElim(i, b):
                return AndElim(i, self.go(b, relenv))
            case ForallIntro(x, sort, b):
                rx = self.fresh(f"r_{x}")
                body = self.go(b, {**relenv, x: rx})
                return ForallIntro(
                    x, sort,
                    ImpIntro(rx, rel_pred(IVar(x, sort), sort), body))
            case ForallElim(b, t):
                return ImpElim(ForallElim(self.go(b, relenv), t),
                               self.dr(t, relenv))
            case BotIntro(label, b):
                return BotIntro(label, self.go(b, relenv))
            case BotElim(label, f, b):
                return BotElim(label, rel_formula(f), self.go(b, relenv))
        raise InternalError(f"bad proof node {p!r}")


def rel_proof(proof, theory, goal):
    """Translate a closed proof into the guarded theory. Returns the new
    proof, the guarded theory, and the new goal sequent."""
    if goal.hyps or goal.labels:
        raise UserError("relativization expects an empty context")
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


def rel_individual_proof(t):
    """A guarded-theory proof that the realizability predicate holds of an
    individual, universally guarded over its free variables. Returns the
    proof and its goal sequent; the proof checks in the pawr theory (and so
    in any extension of it)."""
    sort = infer_sort(t)
    r = _Relativizer(THEORIES["paw"], Id("h"))
    for name in ind_free_vars(t):
        r.avoid.add(name)
    relenv, binders = {}, []
    for name, vsort in ind_free_vars(t).items():
        hyp = r.fresh(f"r_{name}")
        relenv[name] = hyp
        binders.append((name, vsort, hyp))
    body = r.dr(t, relenv)
    goal = rel_pred(t, sort)
    for name, vsort, hyp in reversed(binders):
        guard = rel_pred(IVar(name, vsort), vsort)
        body = ForallIntro(name, vsort, ImpIntro(hyp, guard, body))
        goal = Forall(name, vsort, Imp(guard, goal))
    return body, Sequent(concl=goal)
