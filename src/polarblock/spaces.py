"""Materialized finite classical polar spaces.

A PolarSpace carries the full singular point list (lex order, stable
indices), the generators (each the tuple of its RREF rows, in lex order),
the point/generator incidence and the generator-meets-generator relation
as bitmask rows.  Totally singular subspaces are enumerated level by level
and every level is kept.  Each subspace U carries one bitmask, the points
of perp(U) that are 0 at every pivot column of U; each such point P whose
leading column comes before U's first pivot makes W = <U, P> with RREF
rows (P,) + U's rows, and every W arises so exactly once.  W's mask is
U's mask & perp(P) & the points 0 at P's leading column, and a generator
W = <U, P> has the points perp(U) & perp(P): nothing is row-reduced, and
no level is sorted.  numpy unpacks the generators' point lists from
their masks, a bounded chunk at a time.

The PolarSpace constructor builds the space of a form, and every build,
standard or quotient, is memoized by (kind, rank, q, form): a build is
deterministic in its form, so the quotients at points with equal
restricted forms share one PolarSpace.  A space keeps its projection onto
perp(V)/V at each totally singular vertex V it is asked for
(PolarSpace.quotient), keyed by V's RREF rows.  The projection sends
points to quotient points, and a generator to the quotient generator
through its points' images, an AND of the quotient's point-generator
masks.  A build whose bitmasks would exceed MAX_BUILD_BYTES raises
BudgetError before anything is enumerated, and a standard build before
its form is built.

Supported kinds, one row each of the table _KINDS (q is the base
parameter of the family; hermitian spaces live over GF(q^2)).  The
rank-2 space of a kind is a generalized quadrangle of order (s, t), where
s = q^f is the field order and t = q^k; the last column names the
nondegenerate hyperplane sections of the space of rank r:

    q       Q(2r,q)      parabolic   (q, q)      Q+(2r-1,q), Q-(2r-1,q)
    qminus  Q-(2r+1,q)   elliptic    (q, q^2)    Q(2r,q)
    h       H(2r,q^2)    hermitian   (q^2, q^3)  H(2r-1,q^2)
    qplus3  Q+(2r-1,q)   hyperbolic  (q, 1)      Q(2r-2,q)
    h3      H(2r-1,q^2)  hermitian   (q^2, q)    H(2r-2,q^2)

The space of rank r has (s^r - 1)(s^(r-1) t + 1)/(s - 1) points and
prod_{i<r} (s^i t + 1) generators (Hirschfeld and Thas, General Galois
Geometries, 1991).  Counts and names hold at every rank; standard_form,
and so build_polar_space, holds qplus3 and h3 to rank 2.  A tangent
hyperplane section is the cone pt*X from a point over the space's own
kind X one rank down.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass
from functools import lru_cache, partial
from itertools import chain
from math import prod
from typing import Callable, NamedTuple

import numpy as np

from .gf import field_of_order
from .projective import (
    Subspace,
    Vector,
    canonicalize,
    enumerate_pg_points,
    nullspace,
    theta,
)
# rref and subspace_points stay importable here: perfbench/tracer.py wraps
# these names
from .projective import rref, subspace_points  # noqa: F401
from .forms import (
    Form,
    _square_field,
    elliptic_form,
    hermitian_form,
    hyperbolic_form,
    parabolic_form,
)


class _Kind(NamedTuple):
    """A kind of space.  Its rank-2 order is (s, t) = (q^f, q^k), and the
    space of rank r lives in PG(2r + offset, q^f).  Its nondegenerate
    hyperplane sections are the spaces of the listed kinds, each of rank
    r + its rank offset."""

    prefix: str
    offset: int
    f: int
    k: int
    sections: tuple[tuple[str, int], ...]
    form: Callable[[int, int], Form]  # (rank, q) -> the standard form
    rank2_only: bool = False  # standard_form builds rank 2 alone


_KINDS = {
    "q": _Kind("Q", 0, 1, 1, (("qplus3", 0), ("qminus", -1)),
               lambda r, q: parabolic_form(r, field_of_order(q))),
    "qminus": _Kind("Q-", 1, 1, 2, (("q", 0),),
                    lambda r, q: elliptic_form(r, field_of_order(q))),
    "qplus3": _Kind("Q+", -1, 1, 0, (("q", -1),),
                    lambda r, q: hyperbolic_form(r, field_of_order(q)), True),
    "h": _Kind("H", 0, 2, 3, (("h3", 0),),
               lambda r, q: hermitian_form(2 * r, q)),
    "h3": _Kind("H", -1, 2, 1, (("h", -1),),
                lambda r, q: hermitian_form(2 * r - 1, q), True),
}
KINDS = tuple(_KINDS)

# Guard on the estimated size of a build's incidence and meets bitmasks.
MAX_BUILD_BYTES = 2 ** 30


class BuildError(ValueError):
    pass


class BudgetError(RuntimeError):
    """Raised when a construction would exceed its resource guard."""


def _kind(kind: str) -> _Kind:
    """The table row of a kind; BuildError for an unknown kind."""
    row = _KINDS.get(kind)
    if row is None:
        raise BuildError(f"unknown kind {kind!r}; expected one of {KINDS}")
    return row


def point_count(kind: str, rank: int, q: int) -> int:
    s, t = st_params(kind, q)
    # s^rank // s is s^(rank-1) as an integer, and 0 at rank 0
    return theta(rank - 1, s) * (s ** rank // s * t + 1)


def generator_count(kind: str, rank: int, q: int) -> int:
    s, t = st_params(kind, q)
    return prod(s ** i * t + 1 for i in range(rank))


def build_bytes(kind: str, rank: int, q: int) -> int:
    """Estimated bytes of the meets rows and point/generator masks."""
    gens = generator_count(kind, rank, q)
    return (gens * gens + point_count(kind, rank, q) * gens) // 8


def st_params(kind: str, q: int):
    """GQ order (s,t) of the rank-2 space of the given kind."""
    row = _kind(kind)
    return q ** row.f, q ** row.k


def pencil_size(kind: str, q: int) -> int:
    """Number of generators through an (r-2)-dimensional totally singular
    subspace: t+1 for rank 2 and the cone base size t_base+1 in general."""
    return st_params(kind, q)[1] + 1


def space_name(kind: str, rank: int, q: int) -> str:
    row = _kind(kind)
    return f"{row.prefix}({2 * rank + row.offset},{q ** row.f})"


def _standard_kind(kind: str, rank: int, q: int) -> _Kind:
    """The table row of a kind whose standard space of this rank and q
    builds: BuildError for a rank the kind does not have, ValueError for a
    q whose field (GF(q^2) on a hermitian kind) is not supported."""
    row = _kind(kind)
    if row.rank2_only and rank != 2:
        raise BuildError(f"{kind} is a rank-2 space")
    (field_of_order if row.f == 1 else _square_field)(q)
    return row


def standard_form(kind: str, rank: int, q: int) -> Form:
    return _standard_kind(kind, rank, q).form(rank, q)


def _check_build_bytes(kind: str, rank: int, q: int) -> None:
    """BudgetError when build_bytes is over MAX_BUILD_BYTES, decided in
    bounded time.  The generator count is multiplied out one factor at a
    time, each at least 2, and a count of 2^28 or more is refused as it
    stands: its square alone is 2^53 bytes of meets rows.  Below that the
    estimate is exact, and the GiB are rounded to a tenth in integers."""
    s, t = st_params(kind, q)
    gens = 1
    for i in range(rank):
        gens *= s ** i * t + 1
        if gens >> 28:
            need, about = gens * gens // 8, "more than"
            break
    else:
        need, about = build_bytes(kind, rank, q), "about"
    if need > MAX_BUILD_BYTES:
        # to the nearest tenth of a GiB, a tie to even, as floats round
        tenths, rest = divmod(10 * need, 2 ** 30)
        tenths += 2 * rest > 2 ** 30 or 2 * rest == 2 ** 30 and tenths % 2
        raise BudgetError(
            f"{space_name(kind, rank, q)} needs {about} {tenths // 10}."
            f"{tenths % 10} GiB of bitmasks, over the guard of "
            f"{MAX_BUILD_BYTES / 2 ** 30:g} GiB")


def _mask_from_bool(bits: np.ndarray) -> int:
    by = np.packbits(bits.astype(np.uint8), bitorder="little").tobytes()
    return int.from_bytes(by, "little")


def _iter_bits(mask: int):
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


def _bit_lists(masks, width: int, chunk: int = 1024) -> list[tuple[int, ...]]:
    """tuple(_iter_bits(m)) for each mask m below 2**width, chunk masks at
    a time: their bytes are laid end to end and only the nonzero ones are
    unpacked, so the work and the memory per chunk stay bounded."""
    row_bits = (width + 7) // 8 * 8
    out = []
    for i in range(0, len(masks), chunk):
        part = masks[i:i + chunk]
        buf = np.frombuffer(
            b"".join(m.to_bytes(row_bits // 8, "little") for m in part),
            dtype=np.uint8)
        nz = np.flatnonzero(buf)
        j = np.flatnonzero(np.unpackbits(buf[nz], bitorder="little"))
        pos = nz[j >> 3] * 8 + (j & 7)  # bit positions, ascending
        row = pos // row_bits
        cols = (pos - row * row_bits).tolist()
        start = 0
        for end in np.cumsum(np.bincount(row, minlength=len(part))).tolist():
            out.append(tuple(cols[start:end]))
            start = end
    return out


def _transpose(index_lists, width: int) -> list[int]:
    """out[i] has bit j set iff index_lists[j] holds i, for i < width: the
    incidence masks of the other side."""
    out = [0] * width
    for j, indices in enumerate(index_lists):
        bit = 1 << j
        for i in indices:
            out[i] |= bit
    return out


@dataclass(frozen=True)
class SectionStructure:
    """Restriction of a polar space to a hyperplane."""

    point_indices: tuple[int, ...]
    point_mask: int
    gen_indices: tuple[int, ...]
    label: str


class PolarSpace:
    """Fully enumerated polar space; immutable after construction.  The
    constructor enumerates the space of its form; build it through the memo
    _materialize, as build_polar_space and space_from_form do."""

    def __init__(self, kind: str, rank: int, q: int, form: Form):
        _check_build_bytes(kind, rank, q)
        self.kind = kind
        self.rank = rank
        self.q = q  # base parameter; the field order is q^2 for hermitian
        self.form = form
        self.field = field = form.field
        self.n = form.n
        self.points = points = _singular_points(form)
        exp_pts = point_count(kind, rank, q)
        if len(points) != exp_pts:
            raise BuildError(
                f"{self.name}: found {len(points)} singular points, "
                f"expected {exp_pts}")
        self.num_points = len(points)
        self.all_points_mask = (1 << self.num_points) - 1
        self.point_index = point_index = {p: i for i, p in enumerate(points)}
        self.pts_array = np.array(points, dtype=field.add_table.dtype)
        self.collinear = collinear = _collinearity_masks(form, points,
                                                         self.pts_array)

        # level 0: the points.  At rank 1 each is a generator, with the
        # points perp(p) & Q = {p}; above it each carries the points of
        # perp(p) & Q that are 0 at its leading column
        rows, masks = [(p,) for p in points], collinear
        if rank > 1:
            zero = np.packbits(self.pts_array.T == 0, axis=1,
                               bitorder="little")
            zero = [int.from_bytes(z.tobytes(), "little") for z in zero]
            masks = pivot_zero = [m & zero[p.index(1)]
                                  for p, m in zip(points, collinear)]
        self.levels = []  # RREF rows of the subspaces of dimension 0..rank-2
        for k in range(rank - 1):
            self.levels.append(rows)
            rows, masks = _extend_level(points, point_index, collinear,
                                        pivot_zero, rows, masks,
                                        k == rank - 2)
        exp_gens = generator_count(kind, rank, q)
        if len(rows) != exp_gens:
            raise BuildError(
                f"{self.name}: enumerated {len(rows)} generators, "
                f"expected {exp_gens}")
        self.generators = rows  # RREF rows of each generator
        self.num_generators = len(rows)
        self.all_gens_mask = (1 << self.num_generators) - 1
        self.gen_point_mask = gen_point_mask = masks
        self.gen_points = gen_points = _bit_lists(gen_point_mask, len(points))

        # maximality: a generator's mask is perp(g) & Q, which contains g, so
        # holding exactly the points of a generator means it equals g
        ppg = self.points_per_generator()
        if any(mask.bit_count() != ppg for mask in gen_point_mask):
            raise BuildError("non-maximal generator enumerated")

        self.point_gen_mask = point_gen_mask = _transpose(gen_points,
                                                          len(points))
        self.meets = meets = []
        for pts in gen_points:
            m = 0
            for p in pts:
                m |= point_gen_mask[p]
            meets.append(m)

        degs = {m.bit_count() for m in point_gen_mask}
        if len(degs) != 1:
            raise BuildError("generator regularity violated")
        if len(points) * degs.pop() != len(rows) * ppg:
            raise BuildError("point/generator double count violated")
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
        return theta(self.rank - 1, self.field.q)

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
        """The projection onto the quotient at a point: quotient() at it.
        The index must be an integer (Python or numpy, not bool)."""
        if (isinstance(point_idx, bool)
                or not isinstance(point_idx, (int, np.integer))
                or not 0 <= point_idx < self.num_points):
            raise BuildError(f"no point with index {point_idx!r}")
        return self.quotient(Subspace(self.field, self.n,
                                      (self.points[point_idx],)))

    def quotient(self, vertex: Subspace) -> "QuotientMap":
        """The projection onto perp(V)/V at a totally singular vertex V
        below the generators (built on first use, then cached by V's
        rows)."""
        return self.cached("quotient_map", vertex.rows, QuotientMap, self,
                           vertex.rows)

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
        per_point = self.point_gen_mask[0].bit_count()
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
    """sha256 of the compact JSON of kind, rank, q, the points and the
    generators' rows, which are points: each point's text is made once."""
    text = ["[" + ",".join(map(str, p)) + "]" for p in space.points]
    gens = ("[" + ",".join(text[space.point_index[r]] for r in g) + "]"
            for g in space.generators)
    blob = (f'{{"kind":"{space.kind}","rank":{space.rank},"q":{space.q},'
            f'"points":[{",".join(text)}],"generators":[{",".join(gens)}]}}')
    return hashlib.sha256(blob.encode()).hexdigest()


def _singular_points(form: Form) -> list[Vector]:
    all_pts = enumerate_pg_points(form.n, form.field)
    arr = np.array(all_pts, dtype=form.field.add_table.dtype)
    vals = form.eval_batch(arr)
    return [p for p, v in zip(all_pts, vals) if v == 0]


def _collinearity_masks(form: Form, points, arr: np.ndarray) -> list[int]:
    rows = form.polar_rows(arr)
    return [_mask_from_bool(form.field.combine(p, rows) == 0) for p in points]


def _extend_level(points, point_index, collinear, pivot_zero, urows,
                  umasks, last):
    """Extend every totally singular subspace of one level by one point.

    A level is two parallel lists sorted by rows: the RREF bases urows of
    its subspaces U, and umasks, for each U the points of perp(U) & Q that
    are 0 at every pivot column of U.  The level returned is the same one
    dimension up; when last is true its subspaces are the generators, and
    their masks are their point sets perp(U) & perp(P).  pivot_zero[P] is
    the mask of the point P on level 0: perp(P) & Q, 0 at P's leading
    column.

    Every W of the next level is reached once, from U and P.  Its RREF rows
    are unique: the first, w0, is a point of W, so in perp(W) & Q, 0 at
    every later pivot and leading before them, and the others are the RREF
    rows of a U of this level.  Conversely, for P in U's mask leading
    before U's first pivot, (P,) + U's rows is in RREF, as U's rows are 0
    before their pivots; so W = <U, P> exactly when U is spanned by W's
    rows after the first and P = w0.  Points are normalised to a leading 1
    and indexed in lex order, so the points with leading column before c
    are the top index segment [start[c], len(points)), and every point of
    U's mask in that segment is one W.  No point leads before column 0,
    and the U with first pivot 0 are the level's tail.  W's mask is U's
    mask & pivot_zero[P], as perp(W) = perp(U) & perp(P) and W's pivots
    are U's and P's leading column.

    The scan files U's index and W's mask under P, and the rows (shared
    point tuples) are made after it in the order of (P, U's index): by rows.
    """
    # start[c]: the points with leading column >= c lie below it
    start = [sum(p.index(1) >= c for p in points)
             for c in range(len(points[0]))]
    found = [[] for _ in points]  # found[P]: U's index, W's mask, ...
    for ui, rows in enumerate(urows):
        if rows[0][0]:  # the first pivot is column 0
            break
        s = start[rows[0].index(1)]
        cand = umasks[ui] >> s << s
        if last:
            keep, step = -1, collinear
            for r in rows:
                keep &= collinear[point_index[r]]
        else:
            keep, step = umasks[ui], pivot_zero
        while cand:
            low = cand & -cand
            p = low.bit_length() - 1
            found[p] += ui, keep & step[p]
            cand ^= low
    rows = [(head,) + urows[ui] for head, kept in zip(points, found)
            for ui in kept[::2]]
    return rows, [m for kept in found for m in kept[1::2]]


_materialize = lru_cache(maxsize=None)(PolarSpace)


def build_polar_space(kind: str, rank: int, q: int) -> PolarSpace:
    """The standard polar space of the given kind, memoized by form.  The
    kind, rank and field are checked and the size guard is passed before
    the form is built."""
    _kind(kind)
    if rank < 1:
        raise BuildError("rank must be >= 1")
    _standard_kind(kind, rank, q)
    _check_build_bytes(kind, rank, q)
    return _materialize(kind, rank, q, standard_form(kind, rank, q))


def space_from_form(kind: str, rank: int, q: int, form: Form) -> PolarSpace:
    """The polar space of an explicit (e.g. quotient) form, memoized by
    form: equal forms share one build."""
    return _materialize(kind, rank, q, form)


def _point_table(space: PolarSpace):
    """The weights that read a vector as a base-q code (q the field order,
    the first entry most significant) and the table from each code below
    q^(n+1) to the index of the singular point with it, -1 for any other
    vector.  A code fits an int64 for every space that builds: the build
    lists the points of PG(n,q)."""
    weights = space.field.q ** np.arange(space.n, -1, -1, dtype=np.int64)
    table = np.full(space.field.q ** (space.n + 1), -1, dtype=np.int32)
    table[space.pts_array @ weights] = np.arange(space.num_points)
    return weights, table


def _point_indices(space: PolarSpace, vecs: np.ndarray) -> np.ndarray:
    """The index of the singular point that each row of vecs spans, -1 for
    a row that spans no singular point: each nonzero row is scaled to a
    leading 1 and looked up by its code in the space's point table."""
    field = space.field
    lead = vecs[np.arange(len(vecs)), (vecs != 0).argmax(axis=1)]
    vecs = field.mul_table[field.inv_table[lead][:, None], vecs]
    weights, table = space.cached("point_table", None, _point_table, space)
    return table[vecs @ weights]


# -- symmetry -----------------------------------------------------------------


def _reflections(space: PolarSpace):
    """The reflections in nonsingular points, as maps of the generators.

    For each nonsingular v, in enumerate_pg_points order, the isometry is
    x -> x - (B(x,v)/Q(v)) v on a quadric and x -> x + (zeta-1) h(x,v)/h(v,v) v
    on a hermitian variety (zeta^(q+1) = 1, zeta != 1).  Yields images:
    images(gens) gives the indices of the images of the generators gens (an
    index array or boolean mask), and images() the whole map.  The maps are
    lookups: points by _point_indices, generators by their ascending
    point-index rows as bytes, the exact key of a generator's point set, so
    a reflected generator is looked up by its sorted image row.  Each
    reflection must permute the points and send the point set of every
    mapped generator onto a generator's, and a whole map must be a
    bijection of the generators.  Such a pair of bijections preserves
    incidence, hence meets.
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
    n_pts, n_gens = space.num_points, space.num_generators
    gen_rows = np.array(space.gen_points, dtype=np.int32)
    key = np.dtype((np.void, 4 * gen_rows.shape[1]))
    gen_of_key = {k: g for g, k in
                  enumerate(gen_rows.view(key).ravel().tolist())}

    def gen_images(pmap, v, gens=None):
        image = np.sort(pmap[gen_rows if gens is None else gen_rows[gens]],
                        axis=1)
        gmap = np.array([gen_of_key.get(k, -1)
                         for k in image.view(key).ravel().tolist()],
                        dtype=np.int32)
        if ((gmap < 0).any() or gens is None
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
        pmap = _point_indices(space, img)
        if (pmap < 0).any() or np.bincount(pmap, minlength=n_pts).max() != 1:
            raise AssertionError(f"{space.name}: reflection in {v} does not "
                                 "permute the points")
        yield partial(gen_images, pmap, v)


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


# Candidates of one group tried in a row without one kept before
# _join_orbits moves on to the next group.  Scanning every Schreier
# generator of every map instead is faster where the kept reflections
# already suffice (H(4,9) ~37 against ~84 ms), but far slower where they
# do not (Q(8,2) ~1.2 s against ~25 ms, Q(6,2) and Q(4,5) about 3x), so
# the cut-off stays.
_SCHREIER_PATIENCE = 16


def _join_orbits(space: PolarSpace, marked: np.ndarray, groups,
                 short: str) -> np.ndarray:
    """The candidates that join orbits, as the rows of an int32 array.

    groups() yields groups of candidates, each an images(gens=None) map as
    _reflections yields them.  One is kept when it moves a marked generator
    (marked is a boolean mask) to an unmarked one.  That is tested on the
    smaller of the marked and the unmarked sets alone, since a bijection
    keeps the one exactly when it keeps the other, so only a kept one is
    made whole; the marked set is then closed under those kept (_close),
    and the scan stops once all are marked.  A group is left after
    _SCHREIER_PATIENCE candidates in a row are not kept.  If the groups run
    out first, the scan is made again without that cut-off, as long as it
    keeps one, before AssertionError reports short formatted with the
    marked count and the generator count.
    """
    n = space.num_generators
    found = []
    patience = _SCHREIER_PATIENCE
    while not marked.all():
        before = len(found)
        for group in groups():
            idle = 0
            for images in group:
                if (marked[images(marked)].all() if 2 * marked.sum() <= n
                        else not marked[images(~marked)].any()):
                    idle += 1
                    if idle == patience:
                        break
                    continue
                found.append(images().astype(np.int32, copy=False))
                marked = _close(found, marked)
                if marked.all():
                    return np.array(found, dtype=np.int32)
                idle = 0
        if len(found) == before and patience is None:
            raise AssertionError(f"{space.name}: "
                                 + short.format(int(marked.sum()), n))
        patience = None
    return np.array(found, dtype=np.int32).reshape(-1, n)


def _reflection_permutations(space: PolarSpace) -> np.ndarray:
    """Generator permutations of reflections under which the orbit of
    generator 0 is every generator: _join_orbits with generator 0 marked
    and one group per reflection."""
    return _join_orbits(
        space, np.arange(space.num_generators) == 0,
        lambda: ([images] for images in _reflections(space)),
        "reflections move generator 0 to {} of {} generators")


def meet_types(space: PolarSpace) -> np.ndarray:
    """For each generator, the number of points it shares with generator 0:
    its type.  An isometry fixing generator 0 keeps every type."""
    g0 = space.gen_point_mask[0]
    return np.array([(g0 & m).bit_count() for m in space.gen_point_mask])


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
    small a group.  With the least generator of each type marked,
    _join_orbits scans the Schreier generators of each map in walk order,
    one group per map.  The orbits refine the types, so once every
    generator is marked each type is one orbit.  Each u_g is kept once made,
    as a row of 4 bytes per generator; BudgetError is raised before a row
    is stored that would take the kept rows past MAX_BUILD_BYTES.  The scan
    makes few of them: 195 rows (28.5 MiB) for H(6,4)'s 38,313 generators,
    where a row for every generator would need 5.5 GiB.
    """
    n = space.num_generators
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
        if (len(u) + len(path)) * 4 * n > MAX_BUILD_BYTES:
            raise BudgetError(
                f"{space.name}: the stabilizer of generator 0 needs at "
                f"least {len(u) + len(path)} transversal rows of {4 * n} "
                f"bytes, over the guard of {MAX_BUILD_BYTES / 2 ** 30:g} GiB")
        for h in reversed(path):
            u[h] = kept[via[h]][u[g]]
            g = h
        return u[g]

    def schreier(s, g):
        # u_{s(g)}^-1 s u_g, as an images(gens=None) map
        inverse = np.empty(n, dtype=np.intp)
        inverse[transversal(s[g])] = identity
        ug = transversal(g)
        return lambda gens=None: inverse[s[ug if gens is None else ug[gens]]]

    def groups():
        # as intp arrays: numpy casts an int32 index array on every use
        seen = {s.tobytes() for s in kept}
        others = (images() for images in _reflections(space))
        for s in chain(kept, (s for s in others if s.tobytes() not in seen)):
            yield map(partial(schreier, s.astype(np.intp)), order)

    return _join_orbits(
        space, marked, groups,
        "the orbits of the stabilizer of generator 0 reach {} of {} "
        "generators from the least of each type")


# -- quotient geometry --------------------------------------------------------


class QuotientMap:
    """Projection from a totally singular vertex V onto perp(V)/V.

    The quotient is a polar space of the same kind and of rank
    rank - dim V - 1.  point_image sends each singular point X outside V
    and collinear with all of V to the index of the quotient point <V, X>/V,
    and vertex_mask holds V's points.  At a point P, crows are the rows of
    perp(P) that complete P to a basis of it, the quotient's coordinates.
    A larger V is the quotient at its first RREF row P, then the quotient at
    the image of V there; the two point images are composed.  Each
    generator's image is kept once gen_image has computed it.
    """

    def __init__(self, space: PolarSpace, rows):
        if not 0 < len(rows) < space.rank:
            raise BuildError(f"{space.name} has no quotient at a vertex of "
                             f"dimension {len(rows) - 1}")
        point_idx = space.point_index.get(rows[0])
        if point_idx is None:
            raise BuildError("the vertex is not totally singular")
        self.space = space
        self._gen_images: dict[int, int] = {}
        if len(rows) > 1:
            head = space.quotient_map(point_idx)
            image = [head.point_image.get(space.point_index.get(r))
                     for r in rows[1:]]
            if None in image:
                raise BuildError("the vertex is not totally singular")
            mid = head.quotient
            tail = mid.quotient(canonicalize(mid.field, mid.n,
                                             [mid.points[i] for i in image]))
            self.quotient = tail.quotient
            self.vertex_mask = head.vertex_mask
            self.point_image = {}
            for x, y in head.point_image.items():
                if tail.vertex_mask >> y & 1:
                    self.vertex_mask |= 1 << x
                elif y in tail.point_image:
                    self.point_image[x] = tail.point_image[y]
            return
        field, point = space.field, rows[0]
        perp = space.form.perp(Subspace(field, space.n, rows))
        if not perp.contains_point(point):
            raise BuildError("perp(P) does not contain P")
        # P = sum of P[c] * row over the RREF rows of perp(P), c the row's
        # pivot column; the other rows, without the last one with P[c] != 0,
        # complete P to a basis of perp(P)
        last = max(i for i, r in enumerate(perp.rows) if point[r.index(1)])
        self.crows = perp.rows[:last] + perp.rows[last + 1:]
        self.quotient = space_from_form(space.kind, space.rank - 1, space.q,
                                        space.form.restrict(self.crows))
        self.vertex_mask = 1 << point_idx
        # the points collinear with P: B(P, X) = 0, X != P
        near = space.form.polarize_batch(point, space.pts_array) == 0
        near[point_idx] = False
        around = np.flatnonzero(near)
        # X in perp(P) is (X[c] / P[c]) P plus a vector of the span of crows,
        # whose crows coordinates are its entries at their pivots; its image
        # is the singular point of the quotient that the vector spans
        add, mul = field.add_table, field.mul_table
        c = perp.rows[last].index(1)
        pivots = [r.index(1) for r in self.crows]
        x = space.pts_array[around]
        coef = mul[x[:, c], field.neg(field.inv(point[c]))]
        y = add[x[:, pivots], mul[coef[:, None], [point[j] for j in pivots]]]
        image = _point_indices(self.quotient, y)
        self.point_image = dict(zip(around.tolist(), image.tolist()))

    def gen_through(self, mask: int) -> int:
        """Index of the quotient generator through the images of the points
        of mask, each outside V and collinear with all of it; they must span
        a generator modulo V."""
        qmask = self.quotient.point_gen_mask
        common = self.quotient.all_gens_mask
        for x in _iter_bits(mask):
            common &= qmask[self.point_image[x]]
        if common.bit_count() != 1:
            raise AssertionError(f"points lie on {common.bit_count()} "
                                 "quotient generators")
        return common.bit_length() - 1

    def gen_image(self, g: int) -> int | None:
        """Index of generator g's image among the quotient's generators: the
        one through the images of g's points outside V, or None when g does
        not contain V."""
        image = self._gen_images.get(g)
        if image is None:
            pts = self.space.gen_point_mask[g]
            if self.vertex_mask & ~pts:
                return None
            image = self.gen_through(pts & ~self.vertex_mask)
            self._gen_images[g] = image
        return image


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
    """The name of a hyperplane section with npts points and a radical of
    dimension rad_dim, matched by point count: with no radical, one of the
    kinds of the space's _Kind.sections; with a point as radical, the cone
    pt*X over the space's own kind X one rank down, with 1 + s|X| points.
    Any other section is section(radical_dim=..., points=...)."""
    kind, rank, q = space.kind, space.rank, space.q
    if rad_dim == -1:
        for k, dr in _kind(kind).sections:
            if point_count(k, rank + dr, q) == npts:
                return space_name(k, rank + dr, q)
    elif (rad_dim == 0
          and npts == 1 + space.field.q * point_count(kind, rank - 1, q)):
        return "pt*" + space_name(kind, rank - 1, q)
    return f"section(radical_dim={rad_dim}, points={npts})"


def hyperplane_section(space: PolarSpace, h: Subspace) -> SectionStructure:
    """Points and generators inside a hyperplane, with recognition label."""
    if h.dim != space.n - 1:
        raise ValueError("section requires a hyperplane (codimension 1)")
    field = space.field
    dual = nullspace(field, h.rows, space.n)
    if len(dual.rows) != 1:
        raise ValueError("input is not a hyperplane")
    inside = field.combine(dual.rows[0], space.pts_array.T) == 0
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
    return SectionStructure(pidx, pmask, gidx, label)
