"""Deterministic builders for the catalogue of small blocking sets.

Pencils (all generators through a totally singular subspace of
codimension 1 in a generator), rulings of hyperbolic-quadric grids,
minimum covers of parabolic hyperplane sections of elliptic spaces, and
the cone examples in higher rank: a vertex subspace joined to a rank-2
base blocking structure in the quotient geometry.

Default seeds are the lexicographically least admissible objects, so
every constructor is reproducible across runs.
"""

from __future__ import annotations

import numpy as np

from .projective import Subspace, canonicalize, enumerate_pg_points
from .forms import is_totally_singular
from .spaces import (
    BudgetError,
    PolarSpace,
    SectionStructure,
    enumerate_hyperplanes,
    hyperplane_section,
    pencil_size,
    space_name,
)
from .analysis import (
    CONE_ROWS,
    LABEL_SUBGQ_SPREAD,
    BlockingSet,
    covered_mask,
    is_blocking,
    is_minimal,
    is_partial_spread,
)
from . import search


def lex_least_ts_subspace(space: PolarSpace, dim: int) -> Subspace:
    """Lexicographically least totally singular subspace of the given
    projective dimension, below the generators (first of its level kept by
    the build; the empty subspace for dimension -1)."""
    if not -1 <= dim <= space.rank - 2:
        raise ValueError(f"{space.name}: dim must lie in -1..{space.rank - 2}"
                         f", below the generators, not {dim}")
    if dim == -1:
        return Subspace(space.field, space.n, ())
    return Subspace(space.field, space.n, space.levels[dim][0])


def pencil(space: PolarSpace, vertex: Subspace | None = None) -> BlockingSet:
    """All generators through a totally singular (rank-2)-dimensional
    vertex; the canonical smallest blocking set of every kind."""
    if vertex is None:
        vertex = lex_least_ts_subspace(space, space.rank - 2)
    if vertex.dim != space.rank - 2:
        raise ValueError(
            f"pencil vertex must have dimension {space.rank - 2}, "
            f"got {vertex.dim}")
    if not is_totally_singular(space.form, vertex):
        raise ValueError("pencil vertex must be totally singular")
    members = tuple(sorted(space.generators_through(vertex)))
    expect = pencil_size(space.kind, space.q)
    if len(members) != expect:
        raise AssertionError(
            f"pencil has {len(members)} generators, expected {expect}")
    bs = BlockingSet(space, members)
    if not is_blocking(space, members):
        raise AssertionError("pencil is not blocking")
    if space.rank >= 2 and not is_minimal(space, members):
        raise AssertionError("pencil is not minimal")
    return bs


def grid_rulings(space: PolarSpace, lines=None) -> tuple[list[int], list[int]]:
    """Split the line set of a Q+(3,q) grid into its two rulings.

    lines defaults to all generators (the space itself must then be the
    hyperbolic quadric); for an embedded grid pass the section's line
    indices of the ambient space.
    """
    if lines is None:
        if space.kind != "qplus3":
            raise ValueError("default line set needs a Q+(3,q) space")
        lines = list(range(space.num_generators))
    lines = sorted(lines)
    q = space.q
    if len(lines) != 2 * (q + 1):
        raise ValueError(f"a grid has {2 * (q + 1)} lines, got {len(lines)}")
    l0 = lines[0]
    fam0 = [l for l in lines
            if l == l0 or not (space.gen_point_mask[l] & space.gen_point_mask[l0])]
    fam1 = [l for l in lines if l not in fam0]
    for fam in (fam0, fam1):
        if len(fam) != q + 1 or not is_partial_spread(space, fam):
            raise ValueError("line set has no grid structure")
    if covered_mask(space, fam0) != covered_mask(space, fam1):
        raise ValueError("line set has no grid structure")
    for a in fam0:
        for b in fam1:
            if (space.gen_point_mask[a] & space.gen_point_mask[b]).bit_count() != 1:
                raise ValueError("line set has no grid structure")
    return fam0, fam1


def ruling_spread(space: PolarSpace, which: int = 0) -> BlockingSet:
    """One ruling of a hyperbolic grid, the space itself on Q+(3,q) and its
    lex-least Q+(3,q) section otherwise: q+1 pairwise disjoint lines
    partitioning the grid's points.  which is 0 or 1."""
    if (isinstance(which, bool) or not isinstance(which, (int, np.integer))
            or which not in (0, 1)):
        raise ValueError(f"ruling {which!r} is not 0 or 1")
    lines = (None if space.kind == "qplus3"
             else hyperbolic_section(space).gen_indices)
    fam0, fam1 = grid_rulings(space, lines)
    members = tuple((fam0, fam1)[which])
    if lines is None and covered_mask(space, members) != space.all_points_mask:
        raise AssertionError("ruling does not partition the grid")
    return BlockingSet(space, members)


def find_section(space: PolarSpace, label: str) -> SectionStructure:
    """Lex-least hyperplane whose section carries the requested label."""
    for h in enumerate_hyperplanes(space):
        sec = hyperplane_section(space, h)
        if sec.label == label:
            return sec
    raise ValueError(f"no hyperplane section labelled {label!r} in {space.name}")


def hyperbolic_section(space: PolarSpace) -> SectionStructure:
    """Lex-least Q+(3,q) section of a parabolic rank-2 space."""
    return find_section(space, space_name("qplus3", 2, space.q))


def section_cover(space: PolarSpace) -> BlockingSet:
    """A minimum cover of the lex-least nondegenerate Q(4,q) hyperplane
    section of an elliptic rank-2 space, as a blocking set of the ambient
    space.  For q even the minimum cover is a spread of the section (size
    q^2+1)."""
    if space.kind != "qminus" or space.rank != 2:
        raise ValueError("section covers live in Q-(5,q)")
    sec = find_section(space, space_name("q", 2, space.q))
    lines = [space.gen_points[g] for g in sec.gen_indices]
    # POLARBLOCK_BUDGET_SECS, the search's default deadline, can stop it
    res = search.min_cover(sec.point_indices, lines)
    if not res.complete or res.optimum is None:
        raise BudgetError("section cover search did not complete within budget")
    members = tuple(sorted(sec.gen_indices[i] for i in res.witnesses[0]))
    q = space.q
    if res.optimum < q * q + 1:
        raise AssertionError("cover beat the counting lower bound q^2+1")
    if q % 2 == 0 and res.optimum != q * q + 1:
        raise AssertionError("even q section cover should be a spread")
    bs = BlockingSet(space, members)
    if not is_blocking(space, members):
        raise AssertionError("section cover is not blocking in the ambient")
    return bs


def cone_example(space: PolarSpace, row: str,
                 vertex: Subspace | None = None) -> BlockingSet:
    """A Table-row cone example in rank >= 3: generators through a vertex
    subspace meeting a rank-<=2 base blocking structure.  The rows are
    those of analysis.CONE_ROWS of the space's kind.
    """
    spec = CONE_ROWS.get(row)
    if spec is None or spec.kind != space.kind:
        raise ValueError(f"no cone row {row!r} for kind {space.kind!r}")
    if space.rank < 3:
        raise ValueError("cone examples need rank >= 3")
    # a pencil row's vertex has dimension rank-2, a quotient row's rank-3
    want = space.rank - 2 if spec.base is None else space.rank - 3
    if vertex is None:
        vertex = lex_least_ts_subspace(space, want)
    if vertex.dim != want:
        raise ValueError(f"row {row!r} needs a vertex of dimension {want}, "
                         f"got {vertex.dim}")
    if not is_totally_singular(space.form, vertex):
        raise ValueError("cone vertex must be totally singular")

    if spec.base is None:
        return pencil(space, vertex)

    qm = space.quotient(vertex)
    quot = qm.quotient
    if spec.base == LABEL_SUBGQ_SPREAD:
        base = ruling_spread(quot, 0)
    else:
        base = section_cover(quot)
    # generators through the vertex correspond one to one to the
    # quotient's generators
    wanted = set(base.members)
    members = tuple(g for g in space.generators_through(vertex)
                    if qm.gen_image(g) in wanted)
    if len(members) != len(wanted):
        raise AssertionError("base elements do not lift to generators")
    bs = BlockingSet(space, members)
    if not is_blocking(space, members):
        raise AssertionError("cone example is not blocking")
    if not is_minimal(space, members):
        raise AssertionError("cone example is not minimal")
    return bs


def min_generators_outside_hyperplanes(space: PolarSpace, members) -> tuple[int, tuple]:
    """Least number of members avoiding a hyperplane of the cone's span.

    The cone spans its own projective space (dimension column of the
    catalogue); hyperplanes T range over that span, and the returned
    minimum is the worst case of the not-contained-in-T count, with an
    attaining dual functional in span coordinates.
    """
    field = space.field
    total = canonicalize(field, space.n,
                         [r for m in members for r in space.generators[m].rows])
    # every member row lies in the span: its coordinates are its entries
    # at the pivots of the RREF rows.  A member lies outside the hyperplane
    # c.x = 0 when one of its rows has c.x != 0.
    pivots = [r.index(1) for r in total.rows]
    functionals = enumerate_pg_points(total.dim, field)
    cols = np.array(functionals, dtype=field.add_table.dtype).T
    outside = np.zeros(len(functionals), dtype=np.int64)
    for m in members:
        outside += np.any([field.combine([r[c] for c in pivots], cols) != 0
                           for r in space.generators[m].rows], axis=0)
    i = int(outside.argmin())  # the first minimum
    return int(outside[i]), functionals[i]
