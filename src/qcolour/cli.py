"""Command-line interface: exact checks with deterministic reports.

Subcommands: solve, axioms, expand, rep, char, dual-char, liq,
rootcombi, verify-all.  Reports come out as text, JSON (versioned
schema) or CSV; the exit status is 0 when every check passes, 1 on a
failed check, 2 on a configuration error and 3 when a search ends
inconclusive (the GQE degree bound is exhausted or the sampling solver
cannot decide); an inconclusive run writes no report.
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import dataclass, field

from . import langint, verify
from .crystal import (check_h_admissible, colouring_to_config,
                      h_admissible_expansion, named_colouring)
from .gqe import (GqeDegreeExhausted, GqeEquation, GqeSampleError,
                  NoSolution, solve)
from .repmod import (build_L, character, decompose_into_irreducibles,
                     freudenthal_char, restrict_character,
                     verify_ladder_relations)
from .rootdata import (RootDatum, cartan_by_name, check_cone_avoidance,
                       check_zero_cone_avoidance, check_unique_dominant,
                       finite_type_names, langlands_dual, validate_gcm)
from .series import format_series

SCHEMA = "qcolour-report/1"


@dataclass
class Report:
    command: str
    seed: int
    checks: list = field(default_factory=list)
    lines: list = field(default_factory=list)

    def add_check(self, name, passed, witness="", order=None, status=None):
        self.checks.append({"name": name,
                            "status": status or
                            ("PASS" if passed else "FAIL"),
                            "witness": witness,
                            "max_nonzero_order": order})

    def say(self, text=""):
        self.lines.append(text)

    @property
    def ok(self):
        return all(c["status"] == "PASS" for c in self.checks)

    def render(self, fmt):
        if fmt == "json":
            return json.dumps({"schema": SCHEMA, "command": self.command,
                               "seed": self.seed, "ok": self.ok,
                               "checks": self.checks}, indent=2,
                              sort_keys=True) + "\n"
        if fmt == "csv":
            rows = ["name,status,witness,max_nonzero_order"]
            for c in self.checks:
                wit = str(c["witness"]).replace(",", ";")
                rows.append(f"{c['name']},{c['status']},{wit},"
                            f"{c['max_nonzero_order']}")
            return "\n".join(rows) + "\n"
        out = list(self.lines)
        for c in self.checks:
            extra = f"  [{c['witness']}]" if c["witness"] else ""
            out.append(f"{c['status']:4} {c['name']}{extra}")
        out.append(f"# command: {self.command}; seed: {self.seed}; "
                   f"ok: {self.ok}")
        return "\n".join(out) + "\n"


def _rows(text: str):
    return tuple(tuple(int(x) for x in row.split())
                 for row in text.split(";"))


def _datum_from(spec: str) -> RootDatum:
    if spec.startswith("@"):
        with open(spec[1:], "r", encoding="utf-8") as fh:
            from .crystal import parse_config
            cfg = parse_config(fh.read())
        cm = validate_gcm(_rows(cfg["matrix"]))
        if "d" in cfg:
            want = tuple(int(x) for x in cfg["d"].split())
            if want != cm.d:
                raise ValueError(
                    f"declared symmetrisers {want} disagree with the "
                    f"computed ones {cm.d}")
        name = cfg.get("name", "custom")
        if "roots" in cfg or "coroots" in cfg or "pairing" in cfg:
            datum = RootDatum(cm, roots=_rows(cfg["roots"]),
                              coroots=_rows(cfg["coroots"]),
                              pairing=_rows(cfg["pairing"]), name=name)
            return datum.check()
        return RootDatum.standard(cm, name)
    return RootDatum.standard(cartan_by_name(spec), spec)


# ---------------------------------------------------------------------------
# subcommands


def _effective_order(requested, *colourings):
    """Clamp to the smallest truncation a file-backed colouring declares."""
    orders = [getattr(p, "order", requested) for p in colourings]
    return min([requested] + [k for k in orders if k is not None])


def cmd_solve(args, rep: Report):
    psi1 = named_colouring(args.psi, order=args.order)
    psi2 = named_colouring(args.psi2, order=args.order) if args.psi2 \
        else psi1
    order = _effective_order(args.order, psi1, psi2)
    eq = GqeEquation.build(psi1, psi2, args.degree, order=order,
                           p_max=args.pmax)
    result = solve(eq)
    if isinstance(result, NoSolution):
        rep.say(f"no solution: row (n={result.n}, p={result.p}), "
                f"h-order {result.h_order}")
        rep.add_check("solve", False,
                      f"n={result.n},p={result.p},m={result.h_order}",
                      result.h_order)
        return
    rep.say(f"solution with vanishing tail at p = {result.support()}:")
    for p in range(result.support()):
        rep.say(f"  M_{p} = {format_series(result.entry(p))}")
    rep.add_check("solve", True,
                  f"tail={result.support()},residual-rows="
                  f"{result.residual_checked}")


def cmd_axioms(args, rep: Report):
    psi = named_colouring(args.psi, order=args.order)
    report = check_h_admissible(psi, _effective_order(args.order, psi))
    for v in report.verdicts():
        wit = v.witness if v.status != "pass" else ""
        order = v.order if v.status == "fail" else None
        label = "UNDECIDED" if v.status == "undecidable" else None
        rep.add_check(f"axiom-{v.name}", v.status == "pass", wit, order,
                      status=label)


def cmd_expand(args, rep: Report):
    psi = named_colouring(args.psi, order=args.order)
    expn = h_admissible_expansion(psi, args.depth)
    rep.say(colouring_to_config(expn).rstrip())
    report = check_h_admissible(expn, args.depth + 1)
    rep.add_check("expansion-admissible", report.all_pass())


def cmd_rep(args, rep: Report):
    psi = named_colouring(args.psi, order=args.order)
    m = build_L(args.n, psi, order=_effective_order(args.order, psi))
    rel = verify_ladder_relations(m)
    xp = m.operator("X0+")
    xm = m.operator("X0-")
    for p in range(m.dim):
        ent = xp.compose(xm).entry(p, p)
        val = format_series(ent) if ent is not None and hasattr(
            ent, "coeffs") else str(ent if ent is not None else 0)
        rep.say(f"X+X- b_{args.n},{p} = {val}")
    rep.add_check("ladder-relations", rel.passed,
                  "" if rel.passed else str(rel.failures[:3]))


def cmd_char(args, rep: Report):
    datum = _datum_from(args.datum)
    lam = tuple(int(x) for x in args.weight.split(","))
    chi = freudenthal_char(datum, lam)
    def height(w):
        return sum(datum.weight_to_root(w))
    rows = sorted(chi.items(), key=lambda kv: (-height(kv[0]), kv[0]))
    for w, mult in rows:
        rep.say(",".join(str(x) for x in w) + f",{mult}")
    rep.add_check("character-total",
                  sum(chi.values()) == datum.weyl_dimension(lam),
                  f"dim={sum(chi.values())}")


def cmd_dual_char(args, rep: Report):
    datum = _datum_from(args.datum)
    dual, iso = langlands_dual(datum)
    lam = tuple(int(x) for x in args.weight.split(","))
    chi = freudenthal_char(datum, lam)
    lchi = restrict_character(chi, iso)
    dec = decompose_into_irreducibles(lchi, dual)
    for w in sorted(dec, key=lambda w: (-sum(w), w)):
        rep.say("L(" + ",".join(str(x) for x in w) + f") x {dec[w]}")
    ok = all(v >= 0 for v in dec.values())
    pre = iso.preimage(lam)
    if pre is not None:
        ok = ok and dec.get(pre, 0) >= 1
        rep.add_check("dual-contains-irreducible", ok,
                      f"dual weight {pre}")
    else:
        rep.add_check("dual-decomposition-nonnegative", ok,
                      "weight outside the dual lattice")


def cmd_liq(args, rep: Report):
    g, n = args.g, args.n
    kp = args.order_hp
    r = langint.power_commutation_residual("finite", n, g, kp)
    rep.add_check("power-commutation", r.passed, "", r.max_nonzero_order)
    m = langint.build_hh_module("finite", n, g, args.order, kp)
    rep.add_check("hp0-slice", langint.hp0_slice_matches_quantum(m).passed)
    rep.add_check("commutator-mod-hp", langint.commutator_check(m).passed)
    em = langint.specialize_eps("finite", n, g, kp)
    da = langint.dual_generators(em)
    rep.add_check("dual-relations", langint.dual_relations_report(da).passed)
    v, kernel, _ = langint.dual_module_decomposition(n, g, kp)
    rep.add_check("dual-decomposition", v.passed, v.detail)


def cmd_rootcombi(args, rep: Report):
    if args.datum:
        names = [args.datum]
    else:
        names = [nm for nm in finite_type_names(args.max_rank)
                 if cartan_by_name(nm).rank >= 2]
    for nm in names:
        cm = cartan_by_name(nm) if not nm.startswith("@") else \
            _datum_from(nm).cartan
        r1 = check_unique_dominant(cm)
        r2 = check_cone_avoidance(cm)
        r0 = check_zero_cone_avoidance(cm)
        rep.add_check(f"{nm}-unique-dominant", r1.passed,
                      "" if r1.passed else str(r1.counterexample))
        rep.add_check(f"{nm}-cone", r2.passed,
                      "" if r2.passed else str(r2.counterexample))
        rep.add_check(f"{nm}-zero-cone", r0.passed,
                      "" if r0.passed else str(r0.counterexample))


def cmd_verify_all(args, rep: Report):
    results = verify.run_all(seed=args.seed, cases=args.cases)
    for r in results:
        rep.add_check(r.name, r.passed, r.detail, r.max_nonzero_order)
        rep.say(f"{r.status:4} {r.name} ({r.seconds:.2f}s)")


# ---------------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="qcolour",
        description="exact computations with coloured sl2 crystals, the "
                    "GQE solver and Langlands interpolation")
    shared = argparse.ArgumentParser(add_help=False)
    shared.add_argument("--format", choices=("text", "json", "csv"),
                        default="text")
    shared.add_argument("--seed", type=int, default=verify.DEFAULT_SEED)
    shared.add_argument("--out", help="write the report to a file")
    sub = ap.add_subparsers(dest="command", required=True,
                            parser_class=lambda **kw: argparse.ArgumentParser(
                                parents=[shared], **kw))

    def common(p, order=True):
        if order:
            p.add_argument("--order", type=int, default=6,
                           help="truncation order in h")

    p = sub.add_parser("solve", help="solve a GQE equation")
    p.add_argument("--psi", required=True)
    p.add_argument("--psi2", help="second colouring (defaults to --psi)")
    p.add_argument("--degree", type=int, choices=(-1, 0), required=True)
    p.add_argument("--pmax", type=int, default=24)
    common(p)
    p.set_defaults(fn=cmd_solve)

    p = sub.add_parser("axioms", help="admissibility axioms of a colouring")
    p.add_argument("--psi", required=True)
    common(p)
    p.set_defaults(fn=cmd_axioms)

    p = sub.add_parser("expand", help="admissible expansion of a colouring")
    p.add_argument("--psi", required=True)
    p.add_argument("--depth", type=int, default=4)
    common(p)
    p.set_defaults(fn=cmd_expand)

    p = sub.add_parser("rep", help="build and check a rank-1 module")
    p.add_argument("--psi", required=True)
    p.add_argument("--n", type=int, required=True)
    common(p)
    p.set_defaults(fn=cmd_rep)

    p = sub.add_parser("char", help="weight multiplicities of L(lambda)")
    p.add_argument("--datum", required=True,
                   help="builtin name (A1, A2, B2, C2, G2, ...) or @file")
    p.add_argument("--weight", required=True, help="comma-separated coords")
    p.set_defaults(fn=cmd_char)

    p = sub.add_parser("dual-char", help="Langlands dual character")
    p.add_argument("--datum", required=True)
    p.add_argument("--weight", required=True)
    p.set_defaults(fn=cmd_dual_char)

    p = sub.add_parser("liq", help="interpolation identity suite")
    p.add_argument("--g", type=int, required=True)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--order-hp", type=int, default=4, dest="order_hp")
    common(p)
    p.set_defaults(fn=cmd_liq)

    p = sub.add_parser("rootcombi", help="root-lattice cone and dominance checks")
    p.add_argument("--datum", help="single matrix; default: all finite types")
    p.add_argument("--max-rank", type=int, default=4)
    p.set_defaults(fn=cmd_rootcombi)

    p = sub.add_parser("verify-all", help="run the full acceptance suite")
    p.add_argument("--cases", type=int, default=500,
                   help="cases per property suite")
    p.set_defaults(fn=cmd_verify_all)
    return ap


def main(argv=None) -> int:
    ap = build_parser()
    try:
        args = ap.parse_args(argv)
    except SystemExit as exc:
        return 2 if exc.code not in (0, None) else 0
    rep = Report(command=" ".join(argv if argv is not None else sys.argv[1:]),
                 seed=args.seed)
    try:
        args.fn(args, rep)
    except (GqeDegreeExhausted, GqeSampleError) as exc:
        sys.stderr.write(f"inconclusive: {exc}\n")
        return 3
    except (ValueError, KeyError, OSError, ArithmeticError) as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 2
    text = rep.render(args.format)
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)
    return 0 if rep.ok else 1


if __name__ == "__main__":
    raise SystemExit(main())
