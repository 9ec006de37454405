"""Materialized finite classical polar spaces.

A PolarSpace carries the full singular point list (lex order, stable
indices), the generator list (canonical RREF bases, lex order), the
point/generator incidence and the generator-meets-generator relation as
bitmask rows.  Totally singular subspaces are enumerated level by level
and every level is kept: a subspace U is extended by the singular points
P of perp(U) whose leading column comes before U's first pivot, and once
a span W = <U, P> is found all of W's points leave U's candidates.  U is
then the hyperplane of W holding its lowest points, so each subspace is
found once, from that hyperplane, and its RREF rows are P reduced
against U's rows followed by U's rows.  W's points are computed as a
bitmask: below the generators they are P + x for the vectors x of U,
added as integer codes, and a generator W = <U, P> has the points
perp(U) & perp(P).

Every build, standard or quotient, is memoized by (kind, rank, q, form):
a build is deterministic in its form, so the quotients at points with equal
restricted forms share one PolarSpace.  A build whose bitmasks would exceed
MAX_BUILD_BYTES raises BudgetError before anything is enumerated.

Supported kinds (q is the base parameter of the family; hermitian
spaces live over GF(q^2)):

    q       Q(2n,q)   parabolic, ambient 2*rank
    qminus  Q-(2n+1,q) elliptic, ambient 2*rank+1
    h       H(2n,q^2) hermitian, ambient 2*rank
    qplus3  Q+(3,q)   hyperbolic, rank 2 only
    h3      H(3,q^2)  hermitian, rank 2 only
"""

from __future__ import annotations

import hashlib
import json
import operator
from dataclasses import dataclass
from functools import lru_cache, partial

import numpy as np

from .gf import GF, field_of_order
from .projective import (
    Subspace,
    Vector,
    canonicalize,
    enumerate_pg_points,
    nullspace,
    reduce_against,
    theta,
)
# rref and subspace_points stay importable here: perfbench/tracer.py wraps
# these names
from .projective import rref, subspace_points  # noqa: F401
from .forms import (
    Form,
    elliptic_form,
    hermitian_form,
    hyperbolic_form,
    parabolic_form,
)

KINDS = ("q", "qminus", "qplus3", "h", "h3")

# Guard on the estimated size of a build's incidence and meets bitmasks.
MAX_BUILD_BYTES = 2 ** 30


class BuildError(ValueError):
    pass


class BudgetError(RuntimeError):
    """Raised when a construction would exceed its resource guard."""


def point_count(kind: str, rank: int, q: int) -> int:
    if kind == "q":
        return (q ** (2 * rank) - 1) // (q - 1)
    if kind == "qminus":
        return (q ** (rank + 1) + 1) * (q ** rank - 1) // (q - 1)
    if kind == "qplus3":
        return (q + 1) ** 2
    if kind == "h":
        n = rank
        return (q ** (2 * n + 1) + 1) * (q ** (2 * n) - 1) // (q ** 2 - 1)
    if kind == "h3":
        return (q ** 3 + 1) * (q ** 2 + 1)
    raise BuildError(f"unknown kind {kind!r}")


def generator_count(kind: str, rank: int, q: int) -> int:
    if kind == "q":
        out = 1
        for i in range(1, rank + 1):
            out *= q ** i + 1
        return out
    if kind == "qminus":
        out = 1
        for i in range(2, rank + 2):
            out *= q ** i + 1
        return out
    if kind == "qplus3":
        return 2 * (q + 1)
    if kind == "h":
        out = 1
        for i in range(1, rank + 1):
            out *= q ** (2 * i + 1) + 1
        return out
    if kind == "h3":
        return (q ** 3 + 1) * (q + 1)
    raise BuildError(f"unknown kind {kind!r}")


def build_bytes(kind: str, rank: int, q: int) -> int:
    """Estimated bytes of the meets rows and point/generator masks."""
    gens = generator_count(kind, rank, q)
    return (gens * gens + point_count(kind, rank, q) * gens) // 8


def st_params(kind: str, q: int):
    """GQ order (s,t) of the rank-2 space of the given kind."""
    return {
        "q": (q, q),
        "qminus": (q, q ** 2),
        "h": (q ** 2, q ** 3),
        "qplus3": (q, 1),
        "h3": (q ** 2, q),
    }[kind]


def pencil_size(kind: str, q: int) -> int:
    """Number of generators through an (r-2)-dimensional totally singular
    subspace: t+1 for rank 2 and the cone base size t_base+1 in general."""
    return {
        "q": q + 1,
        "qminus": q ** 2 + 1,
        "h": q ** 3 + 1,
        "qplus3": 2,
        "h3": q + 1,
    }[kind]


def space_name(kind: str, rank: int, q: int) -> str:
    if kind == "q":
        return f"Q({2 * rank},{q})"
    if kind == "qminus":
        return f"Q-({2 * rank + 1},{q})"
    if kind == "h":
        return f"H({2 * rank},{q ** 2})"
    if kind == "qplus3":
        return f"Q+(3,{q})"
    if kind == "h3":
        return f"H(3,{q ** 2})"
    raise BuildError(f"unknown kind {kind!r}")


def standard_form(kind: str, rank: int, q: int) -> Form:
    if kind == "q":
        return parabolic_form(rank, field_of_order(q))
    if kind == "qminus":
        return elliptic_form(rank, field_of_order(q))
    if kind == "qplus3":
        if rank != 2:
            raise BuildError("Q+(3,q) has rank 2")
        return hyperbolic_form(2, field_of_order(q))
    if kind == "h":
        return hermitian_form(2 * rank, q)
    if kind == "h3":
        if rank != 2:
            raise BuildError("H(3,q^2) has rank 2")
        return hermitian_form(3, q)
    raise BuildError(f"unknown kind {kind!r}")


def _mask_from_bool(bits: np.ndarray) -> int:
    by = np.packbits(bits.astype(np.uint8), bitorder="little").tobytes()
    return int.from_bytes(by, "little")


def _iter_bits(mask: int):
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


@dataclass(frozen=True)
class SectionStructure:
    """Restriction of a polar space to a hyperplane."""

    hyperplane: Subspace
    point_indices: tuple[int, ...]
    point_mask: int
    gen_indices: tuple[int, ...]
    radical_points: tuple[int, ...]
    radical: Subspace
    label: str


class PolarSpace:
    """Fully enumerated polar space; immutable after construction."""

    def __init__(self, kind, rank, q, form, points, collinear, levels,
                 generators, gen_points, gen_point_mask, point_gen_mask, meets):
        self.kind = kind
        self.rank = rank
        self.q = q  # base parameter; the field order is q^2 for hermitian
        self.form = form
        self.field = form.field
        self.n = form.n
        self.points = points
        self.point_index = {p: i for i, p in enumerate(points)}
        self.pts_array = np.array(points, dtype=form.field.add_table.dtype)
        self.collinear = collinear
        self.levels = levels  # RREF rows of the subspaces of dimension 0..rank-2
        self.generators = generators
        self.gen_index = {g.rows: i for i, g in enumerate(generators)}
        self.gen_points = gen_points
        self.gen_point_mask = gen_point_mask
        self.point_gen_mask = point_gen_mask
        self.meets = meets
        self.num_points = len(points)
        self.num_generators = len(generators)
        self.all_points_mask = (1 << self.num_points) - 1
        self.all_gens_mask = (1 << self.num_generators) - 1
        if rank == 2:
            self.s, self.t = st_params(kind, q)
        else:
            self.s = self.t = None
        self._derived = {}

    @property
    def name(self) -> str:
        return space_name(self.kind, self.rank, self.q)

    def __repr__(self):
        return (f"PolarSpace({self.name}: {self.num_points} points, "
                f"{self.num_generators} generators)")

    def points_per_generator(self) -> int:
        qf = self.field.q
        return theta(self.rank - 1, qf)

    def totally_singular_subspaces(self, dim: int) -> list[Subspace]:
        """All totally singular subspaces of the given projective
        dimension, canonically sorted (read from the levels kept by the
        build)."""
        if dim < -1 or dim > self.rank - 1:
            raise ValueError(f"no totally singular subspaces of dimension {dim}")
        if dim == -1:
            return [Subspace(self.field, self.n, ())]
        if dim == self.rank - 1:
            return list(self.generators)
        return [Subspace(self.field, self.n, rows) for rows in self.levels[dim]]

    def generators_through(self, sub: Subspace) -> list[int]:
        """Indices of all generators containing the given subspace: those
        through every row of its basis.  A row that is not a singular point
        lies in no generator."""
        common = self.all_gens_mask
        for r in sub.rows:
            i = self.point_index.get(r)
            if i is None:
                return []
            common &= self.point_gen_mask[i]
        return list(_iter_bits(common))

    def generator_permutations(self) -> np.ndarray:
        """Generator permutations induced by isometries, under which
        generator 0 has every generator in its orbit, as the rows of an
        int32 array (computed on first use, then cached)."""
        return self.cached("generator_permutations", None,
                           _reflection_permutations, self)

    def stabilizer_permutations(self) -> np.ndarray:
        """Generator permutations induced by isometries that fix generator
        0, under which the generators sharing t points with it are one
        orbit, for each t, as the rows of an int32 array (computed on first
        use, then cached)."""
        return self.cached("stabilizer_permutations", None,
                           _stabilizer_permutations, self)

    def quotient_map(self, point_idx: int) -> "QuotientMap":
        """The projection onto the quotient at a point (built on first use,
        then cached)."""
        if self.rank < 2:
            raise BuildError("quotient needs rank >= 2")
        if not 0 <= point_idx < self.num_points:
            raise BuildError(f"no point with index {point_idx}")
        return self.cached("quotient_map", point_idx, QuotientMap, self,
                           point_idx)

    def cached(self, table: str, key, build, *args):
        """build(*args), kept under key in the named table: computed on
        first use, then cached.  The key must determine the result on this
        space, as a canonical RREF row tuple or a point mask does (None in
        a table of one entry)."""
        entries = self._derived.setdefault(table, {})
        if key not in entries:
            entries[key] = build(*args)
        return entries[key]

    def content_hash(self) -> str:
        return self.cached("content_hash", None, _content_hash, self)

    def stats(self) -> dict:
        per_point = self.point_gen_mask[0].bit_count() if self.num_points else 0
        return {
            "name": self.name,
            "kind": self.kind,
            "rank": self.rank,
            "q": self.q,
            "field_order": self.field.q,
            "ambient_dim": self.n,
            "points": self.num_points,
            "generators": self.num_generators,
            "s": self.s,
            "t": self.t,
            "generators_per_point": per_point,
            "points_per_generator": self.points_per_generator(),
            "hash": self.content_hash(),
        }


def _content_hash(space: PolarSpace) -> str:
    payload = {
        "kind": space.kind,
        "rank": space.rank,
        "q": space.q,
        "points": [list(p) for p in space.points],
        "generators": [[list(r) for r in g.rows] for g in space.generators],
    }
    blob = json.dumps(payload, separators=(",", ":")).encode()
    return hashlib.sha256(blob).hexdigest()


def _singular_points(form: Form) -> list[Vector]:
    all_pts = enumerate_pg_points(form.n, form.field)
    arr = np.array(all_pts, dtype=form.field.add_table.dtype)
    vals = form.eval_batch(arr)
    return [p for p, v in zip(all_pts, vals) if v == 0]


def _collinearity_masks(form: Form, points, arr: np.ndarray) -> list[int]:
    ADD, MUL = form.field.add_table, form.field.mul_table
    rows = form.polar_rows(arr)
    masks = []
    for p in points:
        vals = None
        for c, row in zip(p, rows):
            if c:
                term = row if c == 1 else MUL[c][row]
                vals = term if vals is None else ADD[vals, term]
        masks.append(_mask_from_bool(vals == 0))
    return masks


def _point_codes(field: GF, points):
    """Integer codes of every nonzero multiple of every point, so that
    vectors add as integers.

    Each base-p digit of each coordinate takes a slot of w bits.  Over
    characteristic 2 a slot is one bit and a sum of codes is their XOR.
    Over odd p two codes are added as integers (2^(w-1) >= p, so no slot
    carries into the next) and every slot that reached p loses p.  Returns
    the addition, each point's codes (its own code first, then the other
    nonzero multiples) and the map from every code to its point's bit.
    """
    p, h, mul = field.p, field.h, field.mull
    w = 1 if p == 2 else (p - 1).bit_length() + 1
    width = w * h
    elem = [sum((e // p ** i % p) << (w * i) for i in range(h))
            for e in range(field.q)]
    multiples, bit_of = [], {}
    for i, pt in enumerate(points):
        codes = []
        for c in range(1, field.q):
            row, code = mul[c], 0
            for x in pt:
                code = code << width | elem[row[x]]
            codes.append(code)
            bit_of[code] = 1 << i
        multiples.append(codes)
    if p == 2:
        return operator.xor, multiples, bit_of
    ones = sum(1 << (w * k) for k in range(len(points[0]) * h))
    top, bias = ones << (w - 1), ((1 << (w - 1)) - p) * ones

    def add(a, b):
        s = a + b
        return s - (((s + bias) & top) >> (w - 1)) * p

    return add, multiples, bit_of


def _extend_level(field: GF, points, point_index, collinear, level, codes):
    """Extend every totally singular subspace of one level by one point.

    level holds (rows, mask) pairs: the canonical RREF basis of a subspace U
    and the mask of its points, sorted by rows.  Each W = <U, P> is computed
    as a point mask.  Below the generators its points are U's points, P and
    P + x for every nonzero vector x of U, looked up through the integer
    codes of _point_codes; codes is None on the last level, where W is a
    generator and its points are perp(U) & perp(P).

    Every W is reached once, from its lowest hyperplane: the points of W
    with a zero in the pivot column of W's first RREF row.  That hyperplane
    is U exactly when P's leading column comes before U's first pivot.
    Points are normalised to a leading 1 and indexed in lex order, so the
    points with leading column before c are the top index segment
    [start[c], len(points)), and P runs over perp(U) & Q in that segment;
    all of W's points leave the candidates after each step.  W's RREF rows
    are then (w0,) + U's rows, where w0 is P reduced against U's rows: U's
    rows are 0 in P's leading column, so no other row changes.  RREF rows
    are singular points, so they are stored as the shared point tuples.
    Returns the new pairs sorted by rows, which is the order of (w0's
    index, U's index in level).
    """
    if codes is not None:
        add, multiples, bit_of = codes
    # start[c]: the points with leading column >= c lie below it
    start = [sum(p.index(1) >= c for p in points)
             for c in range(len(points[0]))]
    out = []
    for ui, (rows, umask) in enumerate(level):
        full = -1
        for r in rows:
            full &= collinear[point_index[r]]
        s = start[rows[0].index(1)]
        cand = full >> s << s
        if codes is not None:
            ucodes = [c for u in _iter_bits(umask) for c in multiples[u]]
        while cand:
            low = cand & -cand
            p = low.bit_length() - 1
            if codes is None:
                wmask = full & collinear[p]
            else:
                pc = multiples[p][0]
                wmask = umask | low
                for c in ucodes:
                    wmask |= bit_of[add(pc, c)]
            i = point_index[reduce_against(field, rows, points[p])]
            out.append((i, ui, (points[i],) + rows, wmask))
            cand &= ~wmask
    out.sort()
    return [(rows, wmask) for _, _, rows, wmask in out]


@lru_cache(maxsize=None)
def _materialize(kind: str, rank: int, q: int, form: Form) -> PolarSpace:
    need = build_bytes(kind, rank, q)
    if need > MAX_BUILD_BYTES:
        raise BudgetError(
            f"{space_name(kind, rank, q)} needs about {need / 2 ** 30:.1f} GiB "
            f"of bitmasks, over the guard of {MAX_BUILD_BYTES / 2 ** 30:g} GiB")
    exp_pts = point_count(kind, rank, q)
    exp_gens = generator_count(kind, rank, q)

    field = form.field
    points = _singular_points(form)
    if len(points) != exp_pts:
        raise BuildError(
            f"{space_name(kind, rank, q)}: found {len(points)} singular "
            f"points, expected {exp_pts}")
    arr = np.array(points, dtype=field.add_table.dtype)
    collinear = _collinearity_masks(form, points, arr)
    point_index = {p: i for i, p in enumerate(points)}

    # level 0: the points themselves
    level = [((p,), 1 << i) for i, p in enumerate(points)]
    levels = []
    codes = _point_codes(field, points) if rank > 2 else None
    for k in range(rank - 1):
        levels.append([rows for rows, _ in level])
        level = _extend_level(field, points, point_index, collinear, level,
                              codes if k < rank - 2 else None)

    if len(level) != exp_gens:
        raise BuildError(
            f"{space_name(kind, rank, q)}: enumerated {len(level)} "
            f"generators, expected {exp_gens}")

    generators = [Subspace(field, form.n, rows) for rows, _ in level]
    gen_point_mask = [mask for _, mask in level]
    gen_points = [tuple(_iter_bits(mask)) for mask in gen_point_mask]

    # maximality: a generator's mask is perp(g) & Q, which contains g, so
    # holding exactly the points of a generator means it equals g
    ppg = theta(rank - 1, field.q)
    if any(mask.bit_count() != ppg for mask in gen_point_mask):
        raise BuildError("non-maximal generator enumerated")

    point_gen_mask = [0] * len(points)
    for gi, pts in enumerate(gen_points):
        bit = 1 << gi
        for p in pts:
            point_gen_mask[p] |= bit
    meets = []
    for pts in gen_points:
        m = 0
        for p in pts:
            m |= point_gen_mask[p]
        meets.append(m)

    degs = {m.bit_count() for m in point_gen_mask}
    if len(degs) != 1:
        raise BuildError("generator regularity violated")
    deg = degs.pop()
    if len(points) * deg != len(generators) * ppg:
        raise BuildError("point/generator double count violated")

    return PolarSpace(kind, rank, q, form, points, collinear, levels,
                      generators, gen_points, gen_point_mask, point_gen_mask,
                      meets)


def build_polar_space(kind: str, rank: int, q: int) -> PolarSpace:
    """The standard polar space of the given kind, memoized by form."""
    if kind not in KINDS:
        raise BuildError(f"unknown kind {kind!r}; expected one of {KINDS}")
    if rank < 1:
        raise BuildError("rank must be >= 1")
    if kind in ("qplus3", "h3") and rank != 2:
        raise BuildError(f"{kind} is a rank-2 space")
    return _materialize(kind, rank, q, standard_form(kind, rank, q))


def space_from_form(kind: str, rank: int, q: int, form: Form) -> PolarSpace:
    """The polar space of an explicit (e.g. quotient) form, memoized by
    form: equal forms share one build."""
    return _materialize(kind, rank, q, form)


# -- symmetry -----------------------------------------------------------------


def _reflections(space: PolarSpace):
    """The reflections in nonsingular points, as maps of the generators.

    For each nonsingular v, in enumerate_pg_points order, the isometry is
    x -> x - (B(x,v)/Q(v)) v on a quadric and x -> x + (zeta-1) h(x,v)/h(v,v) v
    on a hermitian variety (zeta^(q+1) = 1, zeta != 1).  Yields (v, images):
    images(gens) gives the indices of the images of the generators gens (an
    index array or boolean mask), and images() the whole map.  The maps are
    array lookups: points by their base-q codes, generators by a weighted sum
    over their point rows (fixed pseudo-random 64-bit weights, so the key
    ignores row order) looked up among the generators' keys.  Each reflection
    must permute the points and send the point set of every mapped generator
    exactly onto a generator's, and a whole map must be a bijection of the
    generators.  Such a pair of bijections preserves incidence, hence meets.
    """
    form, field = space.form, space.field
    add, mul = field.add_table, field.mul_table
    hermitian = form.kind == "hermitian"
    if hermitian:
        zeta = next(x for x in range(2, field.q)
                    if field.pow(x, field.sub_order + 1) == 1)
        scale = field.sub(zeta, 1)
    else:
        scale = field.neg(1)
    pts = space.pts_array
    rows = np.arange(len(pts))
    n_pts, n_gens = space.num_points, space.num_generators
    place = field.q ** np.arange(form.n, -1, -1, dtype=np.int64)
    point_of_code = np.full(field.q ** (form.n + 1), -1, dtype=np.int32)
    point_of_code[pts.astype(np.int64) @ place] = np.arange(n_pts)
    gen_rows = np.array(space.gen_points, dtype=np.int32)
    # splitmix64 of the point index: fixed, well-mixed weights without
    # loading numpy.random (several MB of resident memory)
    z = np.arange(1, n_pts + 1, dtype=np.uint64) * np.uint64(0x9E3779B97F4A7C15)
    for shift, mult in ((30, 0xBF58476D1CE4E5B9), (27, 0x94D049BB133111EB)):
        z = (z ^ (z >> np.uint64(shift))) * np.uint64(mult)
    weight = z ^ (z >> np.uint64(31))
    gen_of_key = {k: g for g, k in
                  enumerate(weight[gen_rows].sum(axis=1).tolist())}
    if len(gen_of_key) != n_gens:
        raise AssertionError(f"{space.name}: two generators share a key")

    def gen_images(pmap, v, gens=None):
        image = pmap[gen_rows if gens is None else gen_rows[gens]]
        gmap = np.array([gen_of_key.get(k, -1)
                         for k in weight[image].sum(axis=1).tolist()],
                        dtype=np.int32)
        if ((gmap < 0).any()
                or (np.sort(image, axis=1) != gen_rows[gmap]).any()
                or gens is None
                and np.bincount(gmap, minlength=n_gens).max() != 1):
            raise AssertionError(f"{space.name}: reflection in {v} does not "
                                 "permute the generators")
        return gmap

    for v in enumerate_pg_points(form.n, field):
        norm = form.eval(v)
        if not norm:
            continue
        # B(v,x) = B(x,v) on a quadric; H(v,x) is the conjugate of h(x,v)
        b = form.polarize_batch(v, pts)
        if hermitian:
            b = field.conj_table[b]
        coef = mul[field.div(scale, norm)][b]
        img = add[pts, mul[coef[:, None], np.array(v)[None, :]]]
        lead = img[rows, (img != 0).argmax(axis=1)]
        img = mul[field.inv_table[lead][:, None], img]
        pmap = point_of_code[img.astype(np.int64) @ place]
        if (pmap < 0).any() or np.bincount(pmap, minlength=n_pts).max() != 1:
            raise AssertionError(f"{space.name}: reflection in {v} does not "
                                 "permute the points")
        yield v, partial(gen_images, pmap, v)


def _close(maps, marked: np.ndarray) -> np.ndarray:
    """The union of the orbits of the marked generators (a boolean mask)
    under the maps (index arrays), as a new mask."""
    new = marked
    while new.any():
        grown = marked.copy()
        for m in maps:
            grown[m[new]] = True
        new = grown & ~marked
        marked = grown
    return marked


def _reflection_permutations(space: PolarSpace) -> np.ndarray:
    """Generator permutations of reflections: one is kept only when it
    enlarges the orbit of generator 0 under those kept before, and the scan
    stops once that orbit is every generator.  The orbit's image decides
    whether a reflection is kept, so the whole map is built only for the
    kept ones."""
    n_gens = space.num_generators
    maps = []
    in_orbit = np.zeros(n_gens, dtype=bool)
    in_orbit[0] = True
    for _, images in _reflections(space):
        if in_orbit[images(in_orbit)].all():
            continue
        maps.append(images())
        in_orbit = _close(maps, in_orbit)
        if in_orbit.all():
            break
    if not in_orbit.all():
        raise AssertionError(f"{space.name}: reflections move generator 0 to "
                             f"{int(in_orbit.sum())} of {n_gens} generators")
    return np.array(maps, dtype=np.int32).reshape(-1, n_gens)


def meet_types(space: PolarSpace) -> np.ndarray:
    """For each generator, the number of points it shares with generator 0:
    its type.  An isometry fixing generator 0 keeps every type."""
    g0 = space.gen_point_mask[0]
    return np.array([(g0 & m).bit_count() for m in space.gen_point_mask])


# Schreier generators of one map tried in a row without one kept before
# _stabilizer_permutations moves on to the next map.
_SCHREIER_PATIENCE = 16


def _stabilizer_permutations(space: PolarSpace) -> np.ndarray:
    """Generator permutations that fix generator 0, under which each type
    (see meet_types) is one orbit, as the rows of an int32 array.

    Schreier's lemma (Seress, Permutation Group Algorithms, 2003): if the
    maps S generate a group G and u_g in G sends generator 0 to g, for each
    g, then the Schreier generators u_{s(g)}^-1 s u_g, for s in S and every
    g, generate the stabilizer of generator 0 in G.  The u_g are products
    along the tree of a breadth-first walk from generator 0 under the
    reflections kept by generator_permutations, each made on first use.  S
    is those reflections, then every other reflection in scan order: on
    Q(4,2), Q+(3,2), Q(6,2), Q(4,5) and Q(8,2) the kept ones generate too
    small a group.  The least generator of each type is marked, and a
    Schreier generator is kept when it moves a marked generator to an
    unmarked one; the marked set is then closed under those kept (_close).
    The orbits refine the types, so once every generator is marked each
    type is one orbit, and the scan stops.  The Schreier generators of a
    map are tried in walk order until _SCHREIER_PATIENCE in a row are not
    kept.  If the maps run out first, the scan is made again with all of
    them, as long as it keeps one, before AssertionError reports the
    orbits that stay unmarked.  Each u_g and each kept Schreier generator
    is a row of 4 bytes per generator, and there are at most n of each
    (each kept one marks a generator more); BudgetError is raised when
    those 8 n^2 bytes would pass MAX_BUILD_BYTES.
    """
    n = space.num_generators
    if 8 * n * n > MAX_BUILD_BYTES:
        raise BudgetError(
            f"{space.name}: the stabilizer of generator 0 needs up to "
            f"{8 * n * n / 2 ** 30:.1f} GiB of transversal and Schreier "
            f"generators, over the guard "
            f"of {MAX_BUILD_BYTES / 2 ** 30:g} GiB")
    marked = np.zeros(n, dtype=bool)
    marked[np.unique(meet_types(space), return_index=True)[1]] = True
    kept = space.generator_permutations()
    identity = np.arange(n)
    # the walk's tree: g = kept[via[g]][parent[g]]
    parent, via = {0: 0}, {}
    order = [0]
    for g in order:
        for i, h in enumerate(kept[:, g].tolist()):
            if h not in parent:
                parent[h], via[h] = g, i
                order.append(h)
    u = {0: identity}

    def transversal(g):
        path = []
        while g not in u:
            path.append(g)
            g = parent[g]
        for h in reversed(path):
            u[h] = kept[via[h]][u[g]]
            g = h
        return u[g]

    def maps():
        # as intp arrays: numpy casts an int32 index array on every use
        yield from kept.astype(np.intp)
        seen = {s.tobytes() for s in kept}
        for _, images in _reflections(space):
            s = images()
            if s.tobytes() not in seen:
                yield s.astype(np.intp)

    inverse = np.empty(n, dtype=np.intp)
    found = []

    def scan(patience):
        # one scan of the maps; True if it keeps a Schreier generator
        nonlocal marked
        before = len(found)
        for s in maps():
            idle = 0
            for g in order:
                y = s[transversal(g)]
                inverse[transversal(y[0])] = identity
                x = inverse[y]
                if marked[x[marked]].all():
                    idle += 1
                    if idle == patience:
                        break
                    continue
                found.append(x.astype(np.int32))
                marked = _close(found, marked)
                if marked.all():
                    return True
                idle = 0
        return len(found) > before

    patience = _SCHREIER_PATIENCE
    while not marked.all():
        if not scan(patience) and patience is None:
            raise AssertionError(
                f"{space.name}: the orbits of the stabilizer of generator 0 "
                f"reach {int(marked.sum())} of {n} generators from the least "
                "of each type")
        patience = None
    return np.array(found, dtype=np.int32).reshape(-1, n)


# -- quotient geometry --------------------------------------------------------


class QuotientMap:
    """Projection from a singular point P onto perp(P)/P.

    to_quotient maps a totally singular subspace U with P in U inside
    perp(P) to its image, and gen_image maps generator indices.  The
    quotient is a polar space of the same kind and rank-1.
    """

    def __init__(self, space: PolarSpace, point_idx: int):
        self.space = space
        self.point_idx = point_idx
        self.point = space.points[point_idx]
        field = space.field
        psub = canonicalize(field, space.n, [self.point])
        perp = space.form.perp(psub)
        if not perp.contains_point(self.point):
            raise BuildError("perp(P) does not contain P; P not singular?")
        # P = sum of P[c] * row over the RREF rows of perp(P), c the row's
        # pivot column; the other rows, without the last one with P[c] != 0,
        # complete P to a basis of perp(P)
        last = max(i for i, r in enumerate(perp.rows) if self.point[r.index(1)])
        self._perp_rows = perp.rows
        self.crows = perp.rows[:last] + perp.rows[last + 1:]
        self._drop = perp.rows[last].index(1)
        self._pivots = [r.index(1) for r in self.crows]
        qform = space.form.restrict(self.crows)
        self.quotient = space_from_form(space.kind, space.rank - 1, space.q,
                                        qform)
        self._gen_image = {}

    def gen_image(self, g: int) -> int | None:
        """Index of generator g's image among the quotient's generators, or
        None when g misses P (computed on first use, then cached)."""
        if g not in self._gen_image:
            img = None
            if self.space.point_gen_mask[self.point_idx] >> g & 1:
                rows = self.to_quotient(self.space.generators[g]).rows
                img = self.quotient.gen_index.get(rows)
                if img is None:
                    raise AssertionError(
                        f"image of generator {g} is not a quotient generator")
            self._gen_image[g] = img
        return self._gen_image[g]

    def to_quotient(self, sub: Subspace) -> Subspace:
        """The image of sub in perp(P)/P, in coordinates on crows.

        x in perp(P) is (x[c] / P[c]) P plus a vector of the span of crows,
        c the pivot of the dropped row; that vector's crows coordinates are
        its entries at their pivots."""
        field = self.space.field
        add, mul, neg = field.addl, field.mull, field.negl
        p, c = self.point, self._drop
        ip = field.invl[p[c]]
        rows = []
        for x in sub.rows:
            if reduce_against(field, self._perp_rows, x) is not None:
                raise ValueError("subspace is not contained in perp(P)")
            mt = mul[neg[mul[x[c]][ip]]]
            rows.append(tuple(add[x[j]][mt[p[j]]] for j in self._pivots))
        return canonicalize(field, len(self.crows) - 1, rows)


def quotient_at_point(space: PolarSpace, point_idx: int):
    """Quotient polar space at a singular point, with the projection map."""
    qm = space.quotient_map(point_idx)
    return qm.quotient, qm


class IteratedQuotient:
    """Composition of point quotients along a basis of a totally singular
    vertex subspace V; maps subspaces and generators through V to the
    quotient at V.  The point quotients are the spaces' cached maps."""

    def __init__(self, space: PolarSpace, vertex: Subspace):
        self.space = space
        self.vertex = vertex
        self.maps = []
        cur = space
        v = vertex
        while v.dim >= 0:
            qm = cur.quotient_map(cur.point_index[v.rows[0]])
            self.maps.append(qm)
            v = qm.to_quotient(v)
            cur = qm.quotient
        self.quotient = cur

    def to_quotient(self, sub: Subspace) -> Subspace:
        for qm in self.maps:
            sub = qm.to_quotient(sub)
        return sub

    def gen_image(self, g: int) -> int | None:
        """Index of generator g's image in the quotient at V, or None when
        g does not contain V."""
        for qm in self.maps:
            g = qm.gen_image(g)
            if g is None:
                return None
        return g


# -- hyperplane sections -------------------------------------------------------


def enumerate_hyperplanes(space: PolarSpace) -> list[Subspace]:
    """All hyperplanes of the ambient PG, sorted by canonical basis."""
    field = space.field
    hps = []
    for c in enumerate_pg_points(space.n, field):
        hps.append(nullspace(field, [c], space.n))
    hps.sort(key=lambda h: h.rows)
    return hps


def _section_label(space: PolarSpace, rad_dim: int, npts: int) -> str:
    q = space.q
    table = {}
    if space.kind == "qminus" and space.rank == 2:
        table = {
            (-1, (q ** 2 + 1) * (q + 1)): f"Q(4,{q})",
            (0, 1 + q * (q ** 2 + 1)): f"pt*Q-(3,{q})",
        }
    elif space.kind == "q" and space.rank == 2:
        table = {
            (-1, (q + 1) ** 2): f"Q+(3,{q})",
            (-1, q ** 2 + 1): f"Q-(3,{q})",
            (0, 1 + q * (q + 1)): f"pt*Q(2,{q})",
        }
    elif space.kind == "h" and space.rank == 2:
        table = {
            (-1, (q ** 2 + 1) * (q ** 3 + 1)): f"H(3,{q ** 2})",
            (0, 1 + q ** 2 * (q ** 3 + 1)): f"pt*H(2,{q ** 2})",
        }
    elif space.kind == "q" and space.rank == 3:
        table = {
            (-1, (q ** 2 + 1) * (q ** 2 + q + 1)): f"Q+(5,{q})",
            (-1, (q ** 3 + 1) * (q + 1)): f"Q-(5,{q})",
            (0, 1 + q * point_count("q", 2, q)): f"pt*Q(4,{q})",
        }
    elif space.kind == "qminus" and space.rank == 3:
        table = {
            (-1, point_count("q", 3, q)): f"Q(6,{q})",
            (0, 1 + q * point_count("qminus", 2, q)): f"pt*Q-(5,{q})",
        }
    return table.get((rad_dim, npts),
                     f"section(radical_dim={rad_dim}, points={npts})")


def hyperplane_section(space: PolarSpace, h: Subspace) -> SectionStructure:
    """Points and generators inside a hyperplane, with recognition label."""
    if h.dim != space.n - 1:
        raise ValueError("section requires a hyperplane (codimension 1)")
    field = space.field
    dual = nullspace(field, h.rows, space.n)
    if len(dual.rows) != 1:
        raise ValueError("input is not a hyperplane")
    c = dual.rows[0]
    ADD, MUL = field.add_table, field.mul_table
    acc = np.zeros(space.num_points, dtype=ADD.dtype)
    for j, cj in enumerate(c):
        if cj:
            acc = ADD[acc, MUL[cj][space.pts_array[:, j]]]
    inside = acc == 0
    pmask = _mask_from_bool(inside)
    pidx = tuple(int(i) for i in np.nonzero(inside)[0])
    gidx = tuple(gi for gi in range(space.num_generators)
                 if space.gen_point_mask[gi] & ~pmask == 0)
    rad = tuple(p for p in pidx if space.collinear[p] & pmask == pmask)
    rad_sub = canonicalize(field, space.n, [space.points[p] for p in rad]) \
        if rad else Subspace(field, space.n, ())
    if len(rad) != theta(rad_sub.dim, field.q):
        raise BuildError("section radical is not a subspace")
    label = _section_label(space, rad_sub.dim, len(pidx))
    return SectionStructure(h, pidx, pmask, gidx, rad, rad_sub, label)
