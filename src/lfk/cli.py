"""Command-line surface and the two-bridge classification sweep.

Exit status: 0 for a completed computation, 1 for a usage error, 2 for a
mathematical rejection (an obstruction fired); rejections print a
machine-readable JSON reason on standard output.
"""

from __future__ import annotations

import argparse
import contextlib
import csv
import io
import json
import math
import os
import re
import sys
import threading
from dataclasses import dataclass

from .bridge import TwoBridge, equivalence_orbit, even_expansion, signature
from .cubes import (CubeLabeling, check_dimension, corner_homology,
                    oracle_corner_homology)
from .errors import LfkError
from .floer import alternating_cross_check, build_tgraph, hfl_hat, hfl_minus
from .lspace import (LinkProfile, ascii_int, cor_alex2_check,
                     normalized_family, resolve_margin, theorem_alex_check,
                     two_bridge_profile)

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_REJECTED = 2


# -- classification sweep ------------------------------------------------------


@dataclass(frozen=True)
class SweepRecord:
    """Verdicts for one equivalence-class representative b(alpha, beta)."""

    alpha: int
    beta: int
    p: tuple[int, ...]
    q: tuple[int, ...]
    cor_alex2: str     # "pass" or "fail:<reason>"
    tgraph: str        # "ok", "skipped" or the build's error type
    sigma_cross: str   # "pass", "fail:<reason>" or "skipped"
    family_member: bool
    class_id: str

    @property
    def survivor(self) -> bool:
        return (self.cor_alex2 == "pass" and self.tgraph == "ok"
                and self.sigma_cross == "pass")

    def to_csv_row(self) -> list[str]:
        return [str(self.alpha), str(self.beta),
                ",".join(map(str, self.p)), ",".join(map(str, self.q)),
                self.cor_alex2, self.tgraph, self.sigma_cross,
                str(self.family_member).lower(), self.class_id]

    @staticmethod
    def from_csv_row(row) -> SweepRecord:
        alpha, beta, p, q, cor, tg, sc, fam, cid = row
        return SweepRecord(
            int(alpha), int(beta),
            tuple(int(x) for x in p.split(",") if x),
            tuple(int(x) for x in q.split(",") if x),
            cor, tg, sc, fam == "true", cid)


CSV_COLUMNS = ["alpha", "beta", "p", "q", "cor_alex2", "tgraph",
               "sigma_cross", "family", "class_id"]


def class_id_of(alpha: int, beta: int) -> str:
    """Class id: alpha and the smallest residue of the class's orbit."""
    return f"{alpha}:{min(equivalence_orbit(alpha, beta))}"


def all_candidates(max_alpha: int):
    for alpha in range(2, max_alpha + 1, 2):
        for beta in range(-alpha + 1, alpha, 2):
            if beta != 0 and math.gcd(alpha, beta) == 1:
                yield TwoBridge(alpha, beta)


def family_links(max_alpha: int) -> list[TwoBridge]:
    """The known L-space family b(qk-1, -k), q and k odd positive."""
    out = []
    for k in range(1, max_alpha + 2, 2):
        for q in range(1, max_alpha + 2, 2):
            alpha = q * k - 1
            if alpha < 2 or alpha > max_alpha or k >= alpha:
                continue
            out.append(TwoBridge(alpha, -k))
    return out


def _family_ids(max_alpha: int) -> set[str]:
    return {class_id_of(m.alpha, m.beta) for m in family_links(max_alpha)}


def _pipeline(rep: TwoBridge, cid: str, fam: bool, margin: int) -> SweepRecord:
    exp = even_expansion(rep)

    def record(cor, tg="skipped", scv="skipped"):
        return SweepRecord(rep.alpha, rep.beta, exp.p, exp.q, cor, tg, scv,
                           fam, cid)
    try:
        prof = two_bridge_profile(exp)
        cor = cor_alex2_check(prof)
        if cor.sign is None:
            return record("fail:" + (cor.failures[0][3] if cor.failures
                                     else "no sign"))
        # Pin the sign the record states; the build skips the one that fails.
        prof = prof.with_signs({prof.full(): cor.sign})
        try:
            tg = build_tgraph(prof, margin=margin)
        except LfkError as err:     # the corollary passed; the build refused
            return record("pass", type(err).__name__)
        cross = alternating_cross_check(prof, signature(rep),
                                        hfl_minus(prof, tg))
        return record("pass", "ok", "pass" if cross.ok
                      else "fail:" + cross.mismatches[0][1])
    except LfkError as err:         # a broken record must not abort the sweep
        return record(f"fail:{type(err).__name__}")


def _usable_cpus() -> int:
    """The CPUs in this process's affinity set, where it has one."""
    getaffinity = getattr(os, "sched_getaffinity", None)
    return len(getaffinity(0)) if getaffinity else os.cpu_count() or 1


def _run_share(jobs, margin: int):
    """The records of jobs up to the first error raised, and that error."""
    records = []
    try:
        for job in jobs:
            records.append(_pipeline(*job, margin))
    except Exception as err:        # classify raises it in class order
        return records, err
    return records, None


def classify(max_alpha: int, margin: int | None = None) -> list[SweepRecord]:
    """Run the full pipeline on one representative per equivalence class,
    share k = jobs[k::n] of n in a forked child when k > 0. n is the CPU count
    of the affinity set, or 1 without os.fork or while another thread runs."""
    if max_alpha < 2:
        raise ValueError("max_alpha must be at least 2")
    import pickle
    margin = resolve_margin(margin)
    family_ids = _family_ids(max_alpha)
    # Candidates come in (alpha, beta) order; each class keeps the one whose
    # residue is its orbit minimum.
    jobs = [(rep, cid, cid in family_ids) for rep in all_candidates(max_alpha)
            if (cid := class_id_of(rep.alpha, rep.beta))
            == f"{rep.alpha}:{rep.beta % (2 * rep.alpha)}"]
    forks = hasattr(os, "fork") and threading.active_count() == 1
    n = min(len(jobs), _usable_cpus()) if forks else 1
    pids, reads = [], []
    try:
        for k in range(1, n):
            r, w = os.pipe()
            reads.append(open(r, "rb"))
            with open(w, "wb") as out:      # the parent's end closes here
                if (pid := os.fork()) == 0:
                    try:    # os._exit flushes and cleans up nothing inherited
                        reads[-1].close()   # only the parent reads
                        pickle.dump(_run_share(jobs[k::n], margin), out)
                        out.close()
                    finally:
                        os._exit(0)
            pids.append(pid)
        reports = [_run_share(jobs[0::n], margin)]
        blobs = [fh.read() for fh in reads]
    finally:
        for fh in reads:    # first, so a child blocked on a full pipe exits
            fh.close()
        statuses = [os.waitpid(pid, 0)[1] for pid in pids]
    for k, (blob, status) in enumerate(zip(blobs, statuses), 1):
        try:    # a dead child's report, or one cut short, fails to load
            reports.append(pickle.loads(blob if status == 0 else b""))
        except Exception as err:
            raise RuntimeError(f"classify: share {k} of {n} died") from err
    if failures := [(k + len(done) * n, err) for k, (done, err)
                    in enumerate(reports) if err is not None]:
        raise min(failures)[1]      # the earliest class's, as a serial loop
    return [reports[i % n][0][i // n] for i in range(len(jobs))]


def classification_summary(records) -> dict:
    max_alpha = max((r.alpha for r in records), default=0)
    survivor_ids = {r.class_id for r in records if r.survivor}
    family_ids = _family_ids(max_alpha)
    return {
        "classes": len(records),
        "survivors": sorted(survivor_ids),
        "family": sorted(family_ids),
        "match": survivor_ids == family_ids,
    }


def records_to_csv(records) -> str:
    buf = io.StringIO()
    writer = csv.writer(buf)
    writer.writerow(CSV_COLUMNS)
    for r in records:
        writer.writerow(r.to_csv_row())
    return buf.getvalue()


def records_from_csv(text: str) -> list[SweepRecord]:
    rows = list(csv.reader(io.StringIO(text)))
    if not rows or rows[0] != CSV_COLUMNS:
        raise ValueError("unexpected CSV header")
    return [SweepRecord.from_csv_row(row) for row in rows[1:]]


# -- argument handling -----------------------------------------------------------


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        self.print_usage(sys.stderr)
        print(f"error: {message}", file=sys.stderr)
        raise SystemExit(EXIT_USAGE)


def _profile_from_args(args) -> LinkProfile:
    if getattr(args, "profile", None) is not None:
        try:
            with open(args.profile) as fh:
                data = json.load(fh)
        except OSError as err:
            raise ValueError(f"--profile: {err}") from None
        except ValueError as err:       # not JSON, or not text
            raise ValueError(f"--profile: {args.profile}: {err}") from None
        return LinkProfile.from_json(data)
    return two_bridge_profile(_expansion_from(args)[1])


def _add_link_args(sub, profile_ok=True):
    inputs = sub.add_mutually_exclusive_group()
    inputs.add_argument("--ab", nargs=2, type=_int_arg,
                        metavar=("ALPHA", "BETA"),
                        help="two-bridge link b(ALPHA, BETA)")
    inputs.add_argument("--exp", type=str, default=None,
                        help="interleaved expansion p1,q1,p2,...,pn")
    if profile_ok:
        inputs.add_argument("--profile", type=str, default=None,
                            help="path to a link profile JSON file")


def _expansion_from(args):
    from .bridge import EvenExpansion, fraction_of
    if args.exp is not None:
        entries = _int_list("--exp", args.exp.replace("(", "").replace(")", ""))
        exp = EvenExpansion(tuple(entries[0::2]), tuple(entries[1::2]))
        alpha, beta = fraction_of(exp)
        return TwoBridge(alpha, beta), exp
    if args.ab is not None:
        link = TwoBridge(args.ab[0], args.ab[1])
        return link, even_expansion(link)
    raise ValueError("need --ab or --exp"
                     + (" or --profile" if "profile" in args else ""))


def _int_arg(text: str) -> int:
    """An integer option's value, an optionally signed ASCII decimal;
    argparse names the option when it is refused."""
    try:
        return ascii_int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"invalid int value: {text!r}") from None


def _int_list(option: str, text: str) -> list[int]:
    """The integers, optionally signed ASCII decimals, of a comma-separated
    option; an empty field is refused."""
    try:
        return [ascii_int(x) for x in text.split(",")]
    except ValueError:
        raise ValueError(f"{option} takes comma-separated integers, "
                         f"got {text!r}") from None


def _reject(reason: str, detail=None) -> int:
    payload = {"reason": reason}
    if detail is not None:
        payload["detail"] = detail
    print(json.dumps(payload))
    return EXIT_REJECTED


# -- subcommands ----------------------------------------------------------------


def _cmd_alex(args) -> int:
    link, exp = _expansion_from(args)
    prof = two_bridge_profile(exp)
    sign = cor_alex2_check(prof).sign
    if sign is not None:
        prof = prof.with_signs({prof.full(): sign})
    fam = normalized_family(prof)
    out = {
        "alpha": link.alpha, "beta": link.beta,
        "expansion": {"p": list(exp.p), "q": list(exp.q)},
        "linking_number": prof.lkval(1, 2),
        "delta": prof.delta[prof.full()].to_json(),
        "p_empty": fam.p_empty.to_json(),
        "sign": {1: "+", -1: "-"}.get(sign),
    }
    print(json.dumps(out))
    return EXIT_OK


def _cmd_check(args) -> int:
    """Pass when some sign assignment passes the two-component corollary
    and the theorem check, searching the assignments as build_tgraph does.
    Else reject with the first theorem failure, or when no assignment passes
    the corollary, with the first assignment's corollary failure."""
    prof = _profile_from_args(args)
    margin = resolve_margin(args.margin)
    cor_fail = thm_fail = None
    for cand in prof.assignments():
        if cand.l == 2:
            cor = cor_alex2_check(cand)
            if not cor.ok:
                cor_fail = cor_fail or cor
                continue
        thm = theorem_alex_check(cand, margin)
        if thm.ok:
            print(json.dumps({"ok": True, "box": [list(b) for b in thm.box]}))
            return EXIT_OK
        thm_fail = thm_fail or thm
    if thm_fail is None:
        return _reject(f"cor_alex2: {cor_fail.failures[0][3]}",
                       cor_fail.to_json())
    p, r, v = thm_fail.violations[0]
    return _reject(f"signed sum {v} at {list(p)} direction {r}",
                   thm_fail.to_json())


def _cmd_tgraph(args) -> int:
    prof = _profile_from_args(args)
    print(json.dumps(build_tgraph(prof, margin=args.margin).to_json()))
    return EXIT_OK


def _cmd_hfl(args) -> int:
    s2 = None if args.hat is None else tuple(_int_list("--hat", args.hat))
    prof = _profile_from_args(args)
    table = hfl_minus(prof, margin=args.margin)
    out = table.to_json()
    if s2 is not None:
        from .errors import HypothesisNotMet
        try:
            out["hat"] = {"s2": list(s2), "groups": hfl_hat(table, s2).to_json()}
        except HypothesisNotMet as err:
            return _reject(f"hat hypothesis fails at offset {list(err.offset)}")
    print(json.dumps(out))
    return EXIT_OK


def _parse_cube_labels(n: int, text: str) -> CubeLabeling:
    check_dimension(n)
    if text == "all0":
        return CubeLabeling.all_zero(n)
    if text == "all1":
        return CubeLabeling.all_one(n)
    labels = {}
    for part in text.split(","):
        edge, _, val = part.strip().partition(":")
        src, _, dst = edge.partition("->")
        try:
            v = tuple(map(ascii_int, src.strip()))
            w = tuple(map(ascii_int, dst.strip()))
            diffs = [k for k, (x, y) in enumerate(zip(v, w)) if x != y]
            if len(v) != n or len(w) != n or len(diffs) != 1 or v[diffs[0]]:
                raise ValueError
            labels[(v, diffs[0] + 1)] = ascii_int(val.strip())
        except ValueError:
            raise ValueError(f"bad edge {part!r}") from None
    return CubeLabeling(n, labels)


def _cmd_cube(args) -> int:
    cl = _parse_cube_labels(args.n, args.labels)
    fn = oracle_corner_homology if args.oracle else corner_homology
    print(json.dumps({"homology": fn(cl, args.origin).to_json()}))
    return EXIT_OK


def _cmd_classify(args) -> int:
    # Open first, so a bad path fails early; "a" spares an old file on error.
    with (open(args.out, "a") if args.out else contextlib.nullcontext()) as fh:
        records = classify(args.max_alpha, margin=args.margin)
        if fh:
            fh.truncate(0)
            fh.write(records_to_csv(records))
    summary = classification_summary(records)
    summary["out"] = args.out
    print(json.dumps(summary))
    return EXIT_OK


def make_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="lfk", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("alex", help="Alexander data of a two-bridge link")
    _add_link_args(p, profile_ok=False)
    p.set_defaults(fn=_cmd_alex)

    p = sub.add_parser("check", help="run the coefficient obstructions")
    _add_link_args(p)
    p.add_argument("--margin", type=_int_arg, default=None)
    p.set_defaults(fn=_cmd_check)

    p = sub.add_parser("tgraph", help="build the labeled lattice graph")
    _add_link_args(p)
    p.add_argument("--margin", type=_int_arg, default=None)
    p.set_defaults(fn=_cmd_tgraph)

    p = sub.add_parser("hfl", help="tabulate corner homology over the box")
    _add_link_args(p)
    p.add_argument("--margin", type=_int_arg, default=None)
    p.add_argument("--hat", type=str, default=None,
                   help="doubled lattice point for a hat-flavor query")
    p.set_defaults(fn=_cmd_hfl)

    p = sub.add_parser("cube", help="corner homology of one labeled cube")
    p.add_argument("--n", type=_int_arg, required=True)
    p.add_argument("--labels", type=str, required=True,
                   help='all0, all1, or "00->10:1,00->01:0,..."')
    p.add_argument("--origin", type=_int_arg, default=0)
    p.add_argument("--oracle", action="store_true",
                   help="use the truncated free-realization route")
    p.set_defaults(fn=_cmd_cube)

    p = sub.add_parser("classify", help="two-bridge classification sweep")
    p.add_argument("--max-alpha", type=_int_arg, required=True)
    p.add_argument("--out", type=str, default=None, help="CSV output path")
    p.add_argument("--margin", type=_int_arg, default=None)
    p.set_defaults(fn=_cmd_classify)
    return parser


def main(argv=None) -> int:
    parser = make_parser()
    argv = list(sys.argv[1:] if argv is None else argv)
    # argparse takes a value like "-4,-4" for an option; attach it to the
    # --hat or --exp (or a prefix argparse resolves) before it: --hat=-4,-4.
    for i in reversed(range(1, len(argv))):
        if re.fullmatch(r"--(h(at?)?|e(xp?)?)", argv[i - 1]) \
                and re.match(r"-[0-9]", argv[i]):
            argv[i - 1:i + 1] = [f"{argv[i - 1]}={argv[i]}"]
    try:
        args = parser.parse_args(argv)
    except SystemExit as err:
        return EXIT_USAGE if err.code not in (0,) else 0
    try:
        return args.fn(args)
    except (ValueError, OSError) as err:
        print(f"error: {err}", file=sys.stderr)
        return EXIT_USAGE
    except LfkError as err:
        return _reject(f"{type(err).__name__}: {err}")


if __name__ == "__main__":
    sys.exit(main())
