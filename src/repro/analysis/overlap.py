"""Overlap & dependence analysis for tensorized nests.

The execution engine batches an ``IntrinsicCall`` nest over the loop axes
its destination tile depends on, and runs the remaining axes as sequential
accumulation rounds.  That is only sound when

* **tiles are disjoint** — two distinct assignments of the batch axes never
  address the same output element (otherwise the bulk scatter loses the
  scalar loop's write order), and
* **rounds are hazard-free** — a sequential round never reads what another
  round wrote except through the accumulator element itself (the
  ``d = c + sum(...)`` pattern, which the engine folds exactly).

Both are proved here statically.  Disjointness uses the mixed-radix
criterion on the flattened affine output address: with batch coefficients
sorted ascending, each must exceed the total span of all smaller terms plus
the width of one tile — then any nonzero batch step moves the whole tile
past every address the other tiles touch.  Hazards are detected by
comparing every operand binding that touches the written tensor against the
output binding address-for-address.

The pass also performs def-before-use / uninitialized-accumulator
detection over the top-level statement order: an accumulating store
(``t[i] = combine(t[i], rest)``) into a reduction output that no earlier
nest initialised reads garbage in the scalar semantics — the classic
"deleted init nest" corruption, reported with the nest and index expression.
Whether a store reads its own target is the shared reading's answer
(``Nest.accumulation`` / ``Nest.carried``); the mixed-radix test is ``Nest.injective``'s.
"""

from __future__ import annotations

from typing import List, Optional, Set, Tuple

from ..dsl import expr as E
from ..tir.stmt import IntrinsicCall, Store
from ..tir.visitor import same_index
from .framework import Diagnostic, Nest, iter_nests, remembered
from .interval import (
    Env,
    Interval,
    _common_scale,
    _guard_upper_bound,
    _linear_interval,
    atom_interval,
    atom_root,
    linearize,
    loop_env,
    mixed_radix,
    row_major_strides,
)

__all__ = ["analyze_overlap", "check_tiles_disjoint", "check_nest_overlap", "indices_disjoint"]


@remembered("overlap")
def analyze_overlap(func) -> Tuple[List[Optional[bool]], List[Diagnostic]]:
    """Prove tile disjointness / hazard freedom for every nest of ``func``.

    Returns one entry per nest in walk order (``True`` proved disjoint,
    ``False`` proved or suspected overlapping, ``None`` not applicable) plus
    diagnostics, including the uninitialized-accumulator findings.
    """
    results: List[Optional[bool]] = []
    diagnostics: List[Diagnostic] = []
    initialized: Set = set(func.params[:-1])  # inputs are caller-initialised
    output = func.params[-1]
    op = getattr(func, "op", None)
    # An accumulate-form operation (out += ...) reads the caller's output
    # contents by design; a plain reduction must initialise before updating.
    accumulate_by_design = bool(getattr(op, "accumulate", False))

    for nest in iter_nests(func):
        disjoint, diags = check_nest_overlap(nest)
        results.append(disjoint)
        diagnostics.extend(diags)

        # -- def-before-use over top-level statement order ---------------
        if nest.written is None:
            continue
        tensor = nest.written[0]
        read_at = _accumulator_index(nest)
        if read_at is None:
            initialized.add(tensor)  # a non-accumulating full store initialises its target
        elif (
            tensor not in initialized
            and not (tensor is output and accumulate_by_design)
            and tensor not in nest.allocated  # Allocate zero-fills
        ):
            diagnostics.append(
                Diagnostic(
                    "overlap",
                    "error",
                    f"accumulating store reads {tensor.name!r} before any "
                    f"nest initialises it (uninitialized accumulator)",
                    nest=nest.name,
                    index_expr=str(E.TensorLoad(tensor, read_at)),
                )
            )
    return results, diagnostics


def check_nest_overlap(nest: Nest) -> Tuple[Optional[bool], List[Diagnostic]]:
    """Disjointness / hazard proof for one nest (intrinsic nests only)."""
    if not isinstance(nest.body, IntrinsicCall):
        return None, []
    call = nest.body
    diags: List[Diagnostic] = []
    out_b = call.output

    # Read-write hazards: an operand reading the written tensor must read
    # exactly the accumulator element the call writes.
    for binding in call.inputs:
        if binding.program_tensor is out_b.program_tensor and not same_index(
            binding.program_indices, out_b.program_indices
        ):
            diags.append(
                Diagnostic(
                    "overlap",
                    "error",
                    f"intrinsic reads output tensor "
                    f"{out_b.program_tensor.name!r} at a different address "
                    f"than it writes (read-write hazard across rounds)",
                    nest=nest.name,
                    index_expr=str(tuple(binding.program_indices)),
                )
            )
            return False, diags

    disjoint = check_tiles_disjoint(call, nest.axes, nest.guards)
    if disjoint is False:
        diags.append(
            Diagnostic(
                "overlap",
                "error",
                f"output tiles of {call.intrin.name} are not provably "
                f"disjoint across the batch axes (write-write hazard)",
                nest=nest.name,
                index_expr=str(tuple(out_b.program_indices)),
            )
        )
    elif disjoint is None:
        diags.append(
            Diagnostic(
                "overlap",
                "warning",
                "cannot decide tile disjointness (non-affine output address)",
                nest=nest.name,
                index_expr=str(tuple(out_b.program_indices)),
            )
        )
    return disjoint, diags


def check_tiles_disjoint(
    call: IntrinsicCall,
    axes: List[Tuple[E.Var, int]],
    guards: Tuple[E.Expr, ...] = (),
) -> Optional[bool]:
    """Mixed-radix disjointness of the intrinsic's output tiles: the
    output binding's program address over the batch loops ``axes``, each
    batch point writing one tile over the intrinsic's own axes (see
    :func:`indices_disjoint`)."""
    out_b = call.output
    return indices_disjoint(
        out_b.program_indices,
        out_b.program_tensor.shape,
        axes,
        [(ax.var, int(ax.extent)) for ax in call.axes],
        guards,
    )


def indices_disjoint(
    indices,
    shape,
    axes: List[Tuple[E.Var, int]],
    tile_axes: List[Tuple[E.Var, int]] = (),
    guards: Tuple[E.Expr, ...] = (),
) -> Optional[bool]:
    """Mixed-radix disjointness of the tiles ``indices`` writes into a
    buffer of ``shape``: one tile per point of the loops ``axes``, spanned by
    the ``tile_axes`` (none: one element per point, e.g. a store).

    Flattens the address row-major, decomposes it quasi-affinely
    (fused-variable ``//``/``%`` terms become split atoms) over the batch
    variables (loop variables of ``axes`` the address depends on) and the
    tile variables, and requires every batch coefficient to clear the
    combined span of all smaller batch terms plus the tile's address width.

    ``likely`` guards participate: a guard ``g < b`` whose support atoms
    appear in the address as an exact multiple ``s*g`` collapses those atoms
    into one *group* term of range ``[lo(g), b-1]`` — the engine masks the
    guarded residue points, so only the restricted domain must be disjoint.
    (The group map itself must be injective on its box, checked with the
    same mixed-radix test.)  A batch variable whose split atoms do not
    jointly reconstruct it (e.g. only ``f // 3`` addressed, the residue
    lost) makes distinct batch points address identical tiles — a definite
    collision.  ``True`` = proved disjoint, ``False`` = two batch points
    provably collide, ``None`` = undecidable in the quasi-affine domain.
    """
    strides = row_major_strides(shape)

    ienv: Env = loop_env(tile_axes)
    benv: Env = loop_env(axes)
    env: Env = {**benv, **ienv}

    flat_coeffs = {}
    atom_env = {}
    per_dim: List[dict] = []
    for idx, stride in zip(indices, strides):
        lin = linearize(idx, env)
        if lin is None:
            return None
        coeffs, _const, aenv = lin
        atom_env.update(aenv)
        per_dim.append(coeffs)
        for atom, c in coeffs.items():
            flat_coeffs[atom] = flat_coeffs.get(atom, 0) + c * stride

    # Partition address atoms into tile (intrinsic-axis) and batch terms.
    tile = Interval(0, 0)
    batch_coeffs: dict = {}
    batch_ivs: dict = {}
    for atom, c in flat_coeffs.items():
        if c == 0:
            continue
        iv = atom_env.get(atom)
        if iv is None:
            return None
        if atom_root(atom) in ienv:
            tile = tile + iv.scaled(c)
        elif iv.width > 0:  # unit-range atoms cannot collide
            batch_coeffs[atom] = c
            batch_ivs[atom] = iv
    width = tile.width
    used = set(batch_coeffs)

    # Guard grouping: a ``likely`` guard ``g < b`` whose support atoms the
    # address carries as an exact multiple ``s*g`` collapses into a single
    # term of coefficient ``s`` over ``[lo(g), b-1]``: the engine masks the
    # residue points past the guard, so only the restricted domain writes.
    grouped: List[Tuple[int, int]] = []
    for guard in guards:
        gb = _guard_upper_bound(guard)
        if gb is None:
            continue
        g_expr, bound = gb
        g_lin = linearize(g_expr, env)
        if g_lin is None or not g_lin[0]:
            continue
        g_coeffs, g_const, g_aenv = g_lin
        support = [a for a, gc in g_coeffs.items() if gc != 0]
        if any(a not in batch_coeffs for a in support):
            continue
        scale = _common_scale({a: batch_coeffs[a] for a in support}, g_coeffs)
        if scale is None:
            continue
        # The group value must determine its member atoms (injective map),
        # otherwise replacing them by one term would hide a collision.
        if not mixed_radix(
            (abs(gc), g_aenv[a].width) for a, gc in g_coeffs.items() if gc != 0
        ):
            continue
        g_iv = _linear_interval(g_coeffs, 0, g_aenv)
        if g_iv is None:
            continue
        hi = min(g_iv.hi, bound - 1 - g_const)
        if hi < g_iv.lo:
            continue
        for a in support:
            del batch_coeffs[a]  # stays in `used`: the group determines it
        grouped.append((scale, hi - g_iv.lo))

    # Reconstructibility: the batch atoms must determine every batch
    # variable they derive from; a lost residue means two distinct batch
    # points share every atom value — identical tiles, definite overlap.
    divisors: dict = {}
    for atom in atom_env:
        if isinstance(atom, tuple):
            divisors.setdefault(atom[1], set()).add(atom[2])

    def _covered(atom) -> bool:
        iv = atom_interval(atom, env)
        if iv is not None and iv.width == 0:
            return True  # constant-valued: nothing to lose
        if atom in used:
            return True
        return any(
            _covered(("div", atom, c)) and _covered(("mod", atom, c))
            for c in divisors.get(atom, ())
        )

    for root in {atom_root(atom) for atom in used}:
        if not _covered(root):
            return False

    terms = [(abs(c), batch_ivs[a].width) for a, c in batch_coeffs.items()]
    terms.extend(grouped)
    # A batch step that does not clear the span of the smaller terms plus one
    # tile lets two batch points address overlapping tiles (e.g. a stride
    # smaller than the tile).
    if mixed_radix(terms, width):
        return True

    # Per-dimension fallback.  The flattened criterion treats the tile as a
    # contiguous address range, which is too coarse for multi-dimensional
    # box tiles: a 16x16 WMMA block in a 32-wide row-major array interleaves
    # with its neighbours in flat address space yet never shares an element.
    # When every batch atom contributes to exactly one output dimension, it
    # suffices that each dimension's batch coefficients clear that
    # dimension's *own* tile width — two distinct batch points then differ
    # in some dimension by more than the tile spans there, so the boxes are
    # disjoint.  (Guard restriction is not applied here; the full-interval
    # check is strictly more conservative.)
    dim_of: dict = {}
    for d, coeffs in enumerate(per_dim):
        tile_d = Interval(0, 0)
        batch_d: List[Tuple[int, int]] = []
        for atom, c in coeffs.items():
            if c == 0:
                continue
            iv = atom_env[atom]
            if atom_root(atom) in ienv:
                tile_d = tile_d + iv.scaled(c)
            elif iv.width > 0:
                if dim_of.setdefault(atom, d) != d:
                    return False  # atom spans dimensions; no box argument
                batch_d.append((abs(c), iv.width))
        if not mixed_radix(batch_d, tile_d.width):
            return False
    return True


# -- def-before-use helpers -------------------------------------------------


def _accumulator_index(nest: Nest):
    """The index at which a nest reads the tensor it writes (its
    accumulator), or ``None`` when it only writes."""
    body = nest.body
    if isinstance(body, Store):
        return body.indices if nest.accumulation is not None or nest.carried else None
    if isinstance(body, IntrinsicCall) and body.reads_output:
        for binding in body.inputs:
            if binding.program_tensor is body.output.program_tensor:
                return binding.program_indices
    return None
