"""The four benchmark workloads: their inputs, call chains and checks.

Each workload turns a seed into a list of inputs, runs one public call
chain per input (``solve``, the timed part) and checks each output against
seed-independent facts (``check``, untimed).  ``check`` returns the number
of failed items; ``items`` says how many inputs one chain stands for (the
sweep's single ``classify`` call covers every equivalence class).

Inputs are generated here rather than with the package's own enumerators,
so a change to those enumerators shows up as a failed check instead of a
silently different workload.  Functions of the package are looked up on
their modules at call time, so the tracer's wrappers see every call.
"""

from __future__ import annotations

import json
import math
import random
from pathlib import Path

import lfk.bridge as bridge
import lfk.cli as cli
import lfk.floer as floer
import lfk.lspace as lspace
from lfk.cubes import GradedVS
from lfk.errors import RegionUnstable
from lfk.laurent import MultiLaurent

REFERENCE = Path(__file__).resolve().parent / "reference"

# The RegionUnstable message asks the user to enlarge the margin; split3
# does so in these steps and gives up (counting a failure) past the last.
SPLIT3_MARGINS = (2, 4, 6, 8, 10, 12)


def family_members(max_alpha: int) -> list[tuple[int, int]]:
    """(alpha, beta) of the L-space family b(qk-1, -k), q and k odd."""
    out = []
    for k in range(1, max_alpha + 2, 2):
        for q in range(1, max_alpha + 2, 2):
            alpha = q * k - 1
            if 2 <= alpha <= max_alpha and k < alpha:
                out.append((alpha, -k))
    return sorted(out)


def candidates(max_alpha: int) -> list[tuple[int, int]]:
    """(alpha, beta) of every reduced two-bridge fraction with alpha <= max."""
    return [(a, b) for a in range(2, max_alpha + 1, 2)
            for b in range(-a + 1, a, 2) if math.gcd(a, b) == 1]


def _shuffled(items, seed: int) -> list:
    items = list(items)
    random.Random(seed).shuffle(items)
    return items


class Sweep:
    """classify(60): the paper's classification result, the main command."""

    name = "sweep"
    max_alpha = 60

    def __init__(self):
        self.reference = (REFERENCE / "sweep60.csv").read_bytes()
        self.ref_rows = self.reference.decode().splitlines()[1:]

    def inputs(self, seed: int) -> list[int]:
        return [self.max_alpha]      # classify fixes its own order

    def items(self, inp) -> int:
        return len(self.ref_rows)

    def solve(self, max_alpha):
        return cli.classify(max_alpha)

    def check(self, max_alpha, records) -> int:
        text = cli.records_to_csv(records)
        if (text.encode() == self.reference
                and cli.classification_summary(records)["match"]):
            return 0
        rows = text.splitlines()[1:]
        bad = sum(1 for k, row in enumerate(self.ref_rows)
                  if k >= len(rows) or rows[k] != row)
        return max(bad, 1)


class Family:
    """The `lfk hfl` path on every family member with alpha <= 100."""

    name = "family"
    max_alpha = 100

    def inputs(self, seed: int):
        return _shuffled(family_members(self.max_alpha), seed)

    def items(self, inp) -> int:
        return 1

    def solve(self, ab):
        link = bridge.TwoBridge(*ab)
        prof = lspace.two_bridge_profile(link)
        rep = lspace.cor_alex2_check(prof)
        prof = prof.with_signs({prof.full(): rep.sign})
        tg = floer.build_tgraph(prof)
        table = floer.hfl_minus(prof, tg)
        cross = floer.alternating_cross_check(
            prof, bridge.signature(link), table)
        return prof, table, cross

    def check(self, ab, out) -> int:
        prof, table, cross = out
        p_empty = lspace.normalized_family(prof).p_empty
        return int(not (cross.ok and table.euler_series() == p_empty))


class Obstruct:
    """`lfk check` screening of every two-bridge candidate with alpha <= 60."""

    name = "obstruct"
    max_alpha = 60

    def __init__(self):
        with open(REFERENCE / "obstruct60.json") as fh:
            passing = json.load(fh)["passing"]
        self.passing = {tuple(x) for x in passing}
        self.family = set(family_members(self.max_alpha))

    def inputs(self, seed: int):
        return _shuffled(candidates(self.max_alpha), seed)

    def items(self, inp) -> int:
        return 1

    def solve(self, ab):
        exp = bridge.even_expansion(bridge.TwoBridge(*ab))
        prof = lspace.two_bridge_profile(exp)
        cor = lspace.cor_alex2_check(prof)
        verdicts = {s: lspace.theorem_alex_check(
            prof.with_signs({prof.full(): s})).ok for s in (1, -1)}
        return prof, cor, verdicts

    def check(self, ab, out) -> int:
        prof, cor, verdicts = out
        if any(verdicts[s] != ((*ab, s) in self.passing) for s in (1, -1)):
            return 1
        if ab in self.family and not (cor.sign and verdicts[cor.sign]):
            return 1
        coeffs = prof.delta[prof.full()].terms.values()
        if any(abs(c) > 1 for c in coeffs) and any(verdicts.values()):
            return 1
        return 0


def split_union_with_unknot(pair: lspace.LinkProfile) -> lspace.LinkProfile:
    """The pair plus a distant, unlinked unknot as a third component."""
    one = MultiLaurent.const(1, 1)
    lk12 = pair.lkval(1, 2)
    delta = {frozenset({1}): one, frozenset({2}): one, frozenset({3}): one,
             frozenset({1, 2}): pair.delta[pair.full()],
             frozenset({1, 3}): MultiLaurent.zero(2),
             frozenset({2, 3}): MultiLaurent.zero(2),
             frozenset({1, 2, 3}): MultiLaurent.zero(3)}
    return lspace.LinkProfile(3, ((0, lk12, 0), (lk12, 0, 0), (0, 0, 0)),
                              delta, {m: "+" for m in delta})


def _signed_pair(ab) -> lspace.LinkProfile:
    prof = lspace.two_bridge_profile(bridge.TwoBridge(*ab))
    sign = lspace.cor_alex2_check(prof).sign
    return prof.with_signs({prof.full(): sign})


def _tensor(a: GradedVS, b: GradedVS) -> GradedVS:
    out = {}
    for g1, m1 in a.dims:
        for g2, m2 in b.dims:
            out[g1 + g2] = out.get(g1 + g2, 0) + m1 * m2
    return GradedVS.from_dict(out)


class Split3:
    """Three-component split unions, retried with wider margins on refusal."""

    name = "split3"
    max_alpha = 16
    extra = (20, -3)

    def inputs(self, seed: int):
        pairs = [("unlink", lspace.unlink_profile(2))]
        for ab in family_members(self.max_alpha) + [self.extra]:
            pairs.append((f"b({ab[0]},{ab[1]})", _signed_pair(ab)))
        return _shuffled([(name, pair, split_union_with_unknot(pair))
                          for name, pair in pairs], seed)

    def items(self, inp) -> int:
        return 1

    def solve(self, inp):
        """Returns the table and the margin it took to build."""
        _, _, prof3 = inp
        for margin in SPLIT3_MARGINS:
            try:
                return floer.hfl_minus(prof3, margin=margin), margin
            except RegionUnstable:
                if margin == SPLIT3_MARGINS[-1]:
                    raise

    def check(self, inp, out) -> int:
        """The table must be the pair's, tensored with the unknot factor
        F(s3) for s3 <= 0 and the F(0)+F(-1) factor of a split union."""
        _, pair, _ = inp
        table, margin = out
        box2 = table.box[:2]
        pair_table = floer.hfl_minus(
            pair, floer.build_tgraph(pair, box=box2, margin=margin))
        extra = GradedVS(((0, 1), (-1, 1)))
        for s in lspace.box_points(table.box):
            u = GradedVS(((s[2], 1),)) if s[2] <= 0 else GradedVS.zero()
            want = _tensor(_tensor(pair_table.entry(s[:2]), u), extra)
            if table.entry(s) != want:
                return 1
        return 0


WORKLOADS = {w.name: w for w in (Sweep, Family, Obstruct, Split3)}
