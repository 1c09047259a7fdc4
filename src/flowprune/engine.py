"""Dense tensor graphs with reverse-mode differentiation.

A ``Record`` is an append-only list of primitive operations over named input
tensors. The vocabulary is deliberately small: matmul, transpose, broadcast,
add, elementwise multiply, scalar affine, sigmoid, silu, leading-axis sums
and ``stop``, the identity with no gradient. Shape ops act on leading axes
only: ``broadcast`` adds leading axes and ``sum_axes`` sums them away, so
each is the other's backward rule. Every backward rule emits nodes from the
same vocabulary, so a gradient is itself a differentiable graph.
sigmoid is 1/2 + tanh(x/2)/2 and silu is x times it, x/2 * (1 + tanh(x/2)).
The one Hessian product the package takes, H g with g the gradient, falls
out of a second reverse pass (double backprop); central finite differences
of the gradient along g are provided as an independent cross-check. A leaf
the output does not reach, or reaches only through ``stop``, gets no
gradient node: its gradient and its H g read as float64 zeros.

A record interns its nodes: an op other than ``input`` whose ``(op, args,
attrs)`` matches an existing node returns that node. The HVP's second
reverse pass thus reuses the sigmoids, transposes and other nodes the first
pass already built instead of computing them again. A node computes the
same bits under either id, so interning changes no value.

A replay runs in the precision of its feed. An input fed as float32
replays as float32; every other input is converted to float64. The
gradient seed is the output's own ``affine(out, 0, 1)``, so it takes the
output's dtype: a record fed only float32 arrays runs its forward,
gradient and HVP in single precision end to end (training, scoring, the
gradient-norm diagnostic and the DDIM sampler do), and one fed float64
arrays runs in float64 throughout, its Python-float ``affine`` scales
never rounded to float32 (the oracles do).

Replaying a record is deterministic: evaluation walks needed nodes in id
order, so two calls with identical inputs produce identical bits.

Every replay follows one rule. It drops each non-target value right after
its last reader in the plan, a view (``transpose``, ``broadcast``, ``stop``)
counting as a reader of the array it views and dropping first, so a
large-batch replay holds a few live activations instead of all of them. A
non-scalar value of an allocating op (matmul, add, mul, affine, sigmoid or
silu) is the replay's to reuse when it owns its memory and nothing else
holds it. An add, mul, affine or sigmoid writes into such an argument if
it dies at that node with the result's dtype (silu and matmul never do);
any other allocating op pops a buffer of its (shape, dtype) from the
record's free list, where a dropped reusable value goes, so the second and
later DDIM or training steps allocate no activation. Each op runs the same
ufuncs either way, so the bits do not change. A replay pops before it
allocates, so the list holds at most as many buffers per (shape, dtype) as
one replay, or one forward -> gradient chain, takes. A target set's plan and
drop points are computed once and cached together.

A replay may start from a ``values`` dict (node id -> array) that an
earlier replay on the same inputs filled: it skips the nodes in it and
drops and reuses them like its own. ``forward`` keeps its whole plan in
such a dict by making every node a target, and ``gradient`` consumes it, as
training's forward -> gradient chain does. Reuse gives the same bits as a
fresh replay. The values hold for exactly the feed they came from: an input
fed a different array raises ``ValueError``, but an array changed in place
is not detected. The HVP replays without a dict: H g reads the gradient
through ``stop`` nodes, so forward, gradient and double backward are one
plan and no caller holds the first two.
"""

from __future__ import annotations

import sys
from dataclasses import dataclass
from typing import Iterable, Mapping

import numpy as np


@dataclass(frozen=True)
class Node:
    """One primitive operation; ``args`` are ids of earlier nodes."""

    nid: int
    op: str
    args: tuple
    attrs: tuple
    shape: tuple


class Ref:
    """Handle to a node inside a record, used while building graphs."""

    __slots__ = ("record", "nid")

    def __init__(self, record: "Record", nid: int):
        self.record = record
        self.nid = nid

    @property
    def shape(self) -> tuple:
        return self.record.nodes[self.nid].shape

    def __repr__(self) -> str:
        node = self.record.nodes[self.nid]
        return f"Ref({node.op}#{self.nid}, shape={node.shape})"


def _as_f64(value) -> np.ndarray:
    return np.asarray(value, dtype=np.float64)


def sigmoid(x: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """1/2 + tanh(x/2)/2, every pass into ``out`` when it is given. tanh
    saturates to +-1 without overflowing, so the limits 0 (from x = -20 in
    float32, -38 in float64) and 1 come out exactly and with no warning."""
    t = np.tanh(np.multiply(x, 0.5, out=out), out=out)
    return np.add(np.multiply(t, 0.5, out=out), 0.5, out=out)


def silu(x: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """x * sigmoid(x) = x/2 * (1 + tanh(x/2)), -0.0 where the sigmoid is 0;
    every pass writes into ``out`` when it is given, the last reading x."""
    return np.multiply(sigmoid(x, out), x, out=out)


# Ops whose value is a new array: written into a dying argument's buffer or
# a free-list buffer, and put back on the list when a replay drops it as its
# sole owner.
_ALLOCATING = frozenset(("matmul", "add", "mul", "affine", "sigmoid", "silu"))
# Those that may write into a dying argument: silu still reads x in its last
# pass, and matmul reads a row per entry.
_IN_PLACE = frozenset(("add", "mul", "affine", "sigmoid"))
# Ops whose value shares its argument's memory.
_VIEWS = frozenset(("transpose", "broadcast", "stop"))


def _allocating(node: Node, vals: dict, out: np.ndarray | None) -> np.ndarray:
    """The value of an allocating ``node``, into ``out`` when given. A
    function of its own, so no name in the replay loop outlives the
    arrays it reads."""
    args = node.args
    if node.op == "matmul":
        return np.matmul(vals[args[0]], vals[args[1]], out=out)
    if node.op == "add":
        return np.add(vals[args[0]], vals[args[1]], out=out)
    if node.op == "mul":
        return np.multiply(vals[args[0]], vals[args[1]], out=out)
    if node.op == "affine":
        scale, shift = node.attrs
        return np.add(np.multiply(vals[args[0]], scale, out=out), shift,
                      out=out)
    return (sigmoid if node.op == "sigmoid" else silu)(vals[args[0]], out)


def _broadcast(x: np.ndarray, shape: tuple) -> np.ndarray:
    """Read-only view of ``x`` repeated along new leading axes, built by
    the ndarray constructor when ``x`` is C-contiguous."""
    if not (isinstance(x, np.ndarray) and x.flags.c_contiguous):
        return np.broadcast_to(x, shape)
    view = np.ndarray(shape, x.dtype, x, 0,
                      (0,) * (len(shape) - x.ndim) + x.strides)
    view.flags.writeable = False
    return view


class Record:
    """Append-only computation record; also the graph builder.

    Build with the op methods, mark the result with :meth:`set_output`, then
    evaluate through :func:`forward` / :func:`gradient` /
    :func:`hessian_vector_product`. Gradient and HVP construction extend the
    record in place; the extensions are cached and never affect replay of the
    original output.
    """

    def __init__(self):
        self.nodes: list[Node] = []
        self.inputs: dict[str, int] = {}
        self.output: int | None = None
        self._grad_cache: dict[tuple, dict[int, int]] = {}
        self._schedules: dict[tuple, tuple[list[int], list[tuple]]] = {}
        self._free: dict[tuple, list[np.ndarray]] = {}
        self._interned: dict[tuple, int] = {}

    # -- construction -----------------------------------------------------

    def _append(self, op: str, args: tuple, attrs: tuple, shape: tuple) -> Ref:
        """A new node, or the existing one that computes the same
        ``(op, args, attrs)``; an input is always new."""
        # repr tells a -0.0 attr from 0.0, which compare equal
        key = (op, args, repr(attrs))
        nid = self._interned.get(key)
        if nid is None:
            nid = len(self.nodes)
            self.nodes.append(Node(nid, op, args, attrs, tuple(shape)))
            if op != "input":
                self._interned[key] = nid
        return Ref(self, nid)

    def _node(self, ref: Ref) -> Node:
        if ref.record is not self:
            raise ValueError("ref belongs to a different record")
        return self.nodes[ref.nid]

    def input(self, name: str, shape: Iterable[int]) -> Ref:
        """Declare a named input; a name is declared once."""
        if name in self.inputs:
            raise ValueError(f"input {name!r} is already declared")
        ref = self._append("input", (), (name,), tuple(int(s) for s in shape))
        self.inputs[name] = ref.nid
        return ref

    def matmul(self, a: Ref, b: Ref) -> Ref:
        sa, sb = self._node(a).shape, self._node(b).shape
        if len(sa) != 2 or len(sb) != 2 or sa[1] != sb[0]:
            raise ValueError(f"matmul needs compatible 2-D shapes, got {sa} @ {sb}")
        return self._append("matmul", (a.nid, b.nid), (), (sa[0], sb[1]))

    def transpose(self, a: Ref) -> Ref:
        sa = self._node(a).shape
        if len(sa) != 2:
            raise ValueError(f"transpose needs a 2-D shape, got {sa}")
        return self._append("transpose", (a.nid,), (), (sa[1], sa[0]))

    def broadcast(self, a: Ref, shape: Iterable[int]) -> Ref:
        """``a`` repeated along new leading axes: ``shape`` ends with
        ``a``'s shape."""
        shape = tuple(int(s) for s in shape)
        sa = self._node(a).shape
        if shape[len(shape) - len(sa):] != sa:
            raise ValueError(f"cannot broadcast {sa} to {shape}: only "
                             "leading axes can be added")
        return self._append("broadcast", (a.nid,), (shape,), shape)

    def _binary(self, op: str, a: Ref, b: Ref) -> Ref:
        sa, sb = self._node(a).shape, self._node(b).shape
        if sa != sb:
            raise ValueError(f"{op} needs equal shapes, got {sa} and {sb}")
        return self._append(op, (a.nid, b.nid), (), sa)

    def add(self, a: Ref, b: Ref) -> Ref:
        return self._binary("add", a, b)

    def mul(self, a: Ref, b: Ref) -> Ref:
        return self._binary("mul", a, b)

    def affine(self, a: Ref, scale: float, shift: float = 0.0) -> Ref:
        return self._append(
            "affine", (a.nid,), (float(scale), float(shift)), self._node(a).shape
        )

    def sigmoid(self, a: Ref) -> Ref:
        return self._append("sigmoid", (a.nid,), (), self._node(a).shape)

    def silu(self, a: Ref) -> Ref:
        return self._append("silu", (a.nid,), (), self._node(a).shape)

    def sum_axes(self, a: Ref, lead: int | None = None) -> Ref:
        """``a`` summed over its first ``lead`` axes, or over all of them."""
        sa = self._node(a).shape
        lead = len(sa) if lead is None else lead
        if not 0 <= lead <= len(sa):
            raise ValueError(f"cannot sum the first {lead} axes of {sa}")
        return self._append("sum_axes", (a.nid,), (tuple(range(lead)),),
                            sa[lead:])

    def stop(self, a: Ref) -> Ref:
        """``a``'s value, passed on; no gradient flows back through it."""
        return self._append("stop", (a.nid,), (), self._node(a).shape)

    def linear(self, x: Ref, weight: Ref, bias: Ref | None = None) -> Ref:
        """x @ weight.T (+ bias), with weight stored as [out, in]."""
        out = self.matmul(x, self.transpose(weight))
        if bias is not None:
            out = self.add(out, self.broadcast(bias, self._node(out).shape))
        return out

    def set_output(self, ref: Ref) -> None:
        self._node(ref)
        self.output = ref.nid

    # -- evaluation --------------------------------------------------------

    def _schedule(self, targets: tuple) -> tuple[list[int], list[tuple]]:
        """The plan for ``targets``, the ids of every node they need in
        ascending (topological) order, and per plan position the non-target
        ids it reads for the last time, directly or through a view, in
        descending order."""
        if targets in self._schedules:
            return self._schedules[targets]
        needed = set()
        stack = list(targets)
        while stack:
            nid = stack.pop()
            if nid in needed:
                continue
            needed.add(nid)
            stack.extend(self.nodes[nid].args)
        plan = sorted(needed)
        last = {}
        for pos, nid in enumerate(plan):
            for arg in self.nodes[nid].args:
                last[arg] = pos
        # a view is read where its readers are; its id exceeds its array's,
        # so descending order drops it first
        for nid in reversed(plan):
            if self.nodes[nid].op in _VIEWS and nid in last:
                arg = self.nodes[nid].args[0]
                last[arg] = max(last[arg], last[nid])
        dead: list[list[int]] = [[] for _ in plan]
        for nid, pos in last.items():
            if nid not in targets:
                dead[pos].append(nid)
        self._schedules[targets] = plan, [tuple(sorted(ids, reverse=True))
                                          for ids in dead]
        return self._schedules[targets]

    def evaluate(
        self,
        targets: tuple,
        inputs: Mapping[str, np.ndarray],
        values: dict | None = None,
    ) -> dict:
        """Node id -> value for ``targets``, replayed by the module's one
        rule: each non-target value is dropped after its last reader and,
        when the replay solely owns it, written over by that reader or
        recycled. ``values``, a dict an
        earlier call on ``inputs`` filled, is reused and consumed in place
        the same way; an input fed a different array than the one in it
        raises ``ValueError``."""
        vals = {} if values is None else values
        plan, drops = self._schedule(targets)
        for nid, drop in zip(plan, drops):
            node = self.nodes[nid]
            op = node.op
            if op == "input":
                name = node.attrs[0]
                if name not in inputs:
                    raise KeyError(f"missing input {name!r}")
                arr = np.asarray(inputs[name])
                if arr.dtype != np.float32:
                    arr = _as_f64(arr)
                if arr.shape != node.shape:
                    raise ValueError(
                        f"input {name!r} has shape {arr.shape}, record expects "
                        f"{node.shape}"
                    )
                known = vals.get(nid)
                if known is None:
                    vals[nid] = arr
                elif known is not arr and not np.array_equal(known, arr):
                    raise ValueError(
                        f"reused values were computed for a different {name!r}"
                    )
            elif nid in vals:
                pass
            elif op in _ALLOCATING:
                vals[nid] = _allocating(node, vals, self._take(
                    node, vals, drop) if node.shape else None)
            elif op == "stop":
                vals[nid] = vals[node.args[0]]
            elif op == "transpose":
                vals[nid] = vals[node.args[0]].T
            elif op == "broadcast":
                vals[nid] = _broadcast(vals[node.args[0]], node.attrs[0])
            elif op == "sum_axes":
                vals[nid] = np.sum(vals[node.args[0]], axis=node.attrs[0])
            else:  # pragma: no cover
                raise ValueError(f"unknown op {op!r}")
            for dead in drop:
                # an argument this node wrote into is held twice: not owned
                if self._owned(dead, vals):
                    key = (vals[dead].shape, vals[dead].dtype)
                    self._free.setdefault(key, []).append(vals.pop(dead))
                else:
                    del vals[dead]
        return vals

    def _owned(self, nid: int, vals: dict) -> bool:
        """Whether ``vals[nid]`` is a non-scalar value of an allocating op
        that owns its memory and that nothing but ``vals`` holds."""
        node = self.nodes[nid]
        # ``vals`` and getrefcount's own argument
        return (node.op in _ALLOCATING and bool(node.shape)
                and vals[nid].base is None
                and sys.getrefcount(vals[nid]) == 2)

    def _take(self, node: Node, vals: dict, drop: tuple) -> np.ndarray:
        """A buffer of ``node``'s shape and result dtype: an argument's,
        when the argument dies here and the replay solely owns it, else a
        free one or a new one."""
        dtype = vals[node.args[0]].dtype
        if len(node.args) == 2:
            dtype = np.promote_types(dtype, vals[node.args[1]].dtype)
        if node.op in _IN_PLACE:
            for arg in node.args:
                if (arg in drop and self._owned(arg, vals)
                        and vals[arg].dtype == dtype):
                    return vals[arg]
        free = self._free.get((node.shape, dtype))
        return free.pop() if free else np.empty(node.shape, dtype)

    # -- differentiation ---------------------------------------------------

    def _vjp(self, node: Node, g: Ref) -> list[tuple[int, Ref]]:
        """Contributions (parent id, grad ref) for one node, built from primitives."""
        out: list[tuple[int, Ref]] = []
        args = node.args
        if node.op in ("input", "stop"):
            return out
        refs = [Ref(self, a) for a in args]
        if node.op == "matmul":
            a, b = refs
            out.append((args[0], self.matmul(g, self.transpose(b))))
            out.append((args[1], self.matmul(self.transpose(a), g)))
        elif node.op == "transpose":
            out.append((args[0], self.transpose(g)))
        elif node.op == "broadcast":
            lead = len(node.shape) - len(self.nodes[args[0]].shape)
            out.append((args[0], self.sum_axes(g, lead)))
        elif node.op == "add":
            out.append((args[0], g))
            out.append((args[1], g))
        elif node.op == "mul":
            out.append((args[0], self.mul(g, refs[1])))
            out.append((args[1], self.mul(g, refs[0])))
        elif node.op == "affine":
            out.append((args[0], self.affine(g, node.attrs[0], 0.0)))
        elif node.op == "sigmoid":
            y = Ref(self, node.nid)
            out.append((args[0], self.mul(g, self.mul(y, self.affine(y, -1.0, 1.0)))))
        elif node.op == "silu":
            x = refs[0]
            s = self.sigmoid(x)
            inner = self.add(s, self.mul(self.mul(x, s), self.affine(s, -1.0, 1.0)))
            out.append((args[0], self.mul(g, inner)))
        elif node.op == "sum_axes":
            out.append((args[0], self.broadcast(g, self.nodes[args[0]].shape)))
        else:  # pragma: no cover
            raise ValueError(f"no backward rule for {node.op!r}")
        return out

    def _build_grad(self, out_id: int, wrt_ids: tuple) -> dict[int, int]:
        """Extend the record with gradient nodes of node ``out_id`` w.r.t. leaves.

        Returns leaf id -> grad node id for the leaves the output reaches
        other than through ``stop``, in ``wrt_ids`` order; the rest have no
        entry.
        """
        key = (out_id, wrt_ids)
        if key in self._grad_cache:
            return self._grad_cache[key]
        if self.nodes[out_id].shape != ():
            raise ValueError("gradient target must be scalar")

        # Nodes through which a wrt leaf can influence the output.
        relevant = set()
        for nid in self._schedule((out_id,))[0]:
            node = self.nodes[nid]
            if nid in wrt_ids or any(a in relevant for a in node.args):
                relevant.add(nid)

        # d out / d out = 1, in the output's dtype
        seed = self.affine(Ref(self, out_id), 0.0, 1.0)
        contribs: dict[int, list[Ref]] = {out_id: [seed]}
        grads: dict[int, Ref] = {}
        for nid in sorted(relevant, reverse=True):
            parts = contribs.get(nid)
            if not parts:
                continue
            g = parts[0]
            for extra in parts[1:]:
                g = self.add(g, extra)
            grads[nid] = g
            for parent, grad_ref in self._vjp(self.nodes[nid], g):
                if parent in relevant:
                    contribs.setdefault(parent, []).append(grad_ref)

        self._grad_cache[key] = {wid: grads[wid].nid for wid in wrt_ids
                                 if wid in grads}
        return self._grad_cache[key]

    def _wrt_ids(self, wrt: Iterable[str]) -> tuple:
        names = sorted(set(wrt))
        missing = [n for n in names if n not in self.inputs]
        if missing:
            raise KeyError(f"unknown parameter name(s): {missing}")
        return tuple(self.inputs[n] for n in names), names

    def _ensure_hvp(self, wrt_ids: tuple) -> dict[int, int]:
        """Leaf id -> node id of H g, the gradient of sum(g * stop(g)), so
        the second reverse pass holds g constant. Interning and the gradient
        cache make a repeat call add no node and return the same ids."""
        phi = None
        for gid in self._build_grad(self.output, wrt_ids).values():
            g = Ref(self, gid)
            term = self.sum_axes(self.mul(g, self.stop(g)))
            phi = term if phi is None else self.add(phi, term)
        return {} if phi is None else self._build_grad(phi.nid, wrt_ids)


def _check_finite(arr: np.ndarray, what: str) -> np.ndarray:
    if not np.isfinite(arr).all():
        raise FloatingPointError(f"non-finite values in {what}")
    return arr


def _require_output(record: Record) -> int:
    if record.output is None:
        raise ValueError("record has no output; call set_output first")
    return record.output


def _per_leaf(record: Record, nodes: dict, wrt_ids: tuple, names: list,
              inputs, what: str, values: dict | None = None) -> dict:
    """Name -> the value of ``nodes[leaf id]``, the nodes replayed at once
    and checked finite; float64 zeros for a leaf with no node."""
    vals = record.evaluate(tuple(nodes.values()), inputs, values)
    return {name: _check_finite(vals[nodes[wid]], f"{what}[{name}]")
            if wid in nodes else np.zeros(record.nodes[wid].shape)
            for wid, name in zip(wrt_ids, names)}


def forward(
    record: Record, inputs: Mapping[str, np.ndarray], values: dict | None = None
) -> np.ndarray:
    """Replay the record on ``inputs`` and return its output tensor.

    Pass an empty dict as ``values`` to keep the node values for a later
    :func:`gradient` on the same inputs: every node of the output's plan is
    then a target, so the replay drops none of them.
    """
    out = _require_output(record)
    targets = (out,) if values is None else tuple(record._schedule((out,))[0])
    vals = record.evaluate(targets, inputs, values)
    return _check_finite(vals[out], "forward output")


def gradient(
    record: Record,
    inputs: Mapping[str, np.ndarray],
    wrt: Iterable[str],
    values: dict | None = None,
) -> dict[str, np.ndarray]:
    """Gradients of the scalar output w.r.t. the named inputs.

    ``values`` from an earlier :func:`forward` on the same inputs is
    consumed: its nodes are not evaluated again, and each is dropped and
    reused after its last reader in the gradient's plan.
    """
    out = _require_output(record)
    wrt_ids, names = record._wrt_ids(wrt)
    return _per_leaf(record, record._build_grad(out, wrt_ids), wrt_ids, names,
                     inputs, "gradient", values)


def hessian_vector_product(
    record: Record,
    inputs: Mapping[str, np.ndarray],
    wrt: Iterable[str],
    method: str = "exact",
) -> dict[str, np.ndarray]:
    """H @ g for the Hessian H and gradient g of the scalar output w.r.t.
    the named inputs, at ``inputs``.

    ``method="exact"`` differentiates the gradient graph (double backprop)
    in one replay that releases each node after its last use; g enters the
    second pass through ``stop`` nodes of that same replay. ``method="fd"``
    takes central differences of the gradient along g with step
    ``1e-4 * (1 + max|theta|)``.
    """
    _require_output(record)
    wrt_ids, names = record._wrt_ids(wrt)
    if method == "exact":
        if not names:
            raise ValueError("HVP needs at least one parameter name")
        return _per_leaf(record, record._ensure_hvp(wrt_ids), wrt_ids, names,
                         inputs, "hvp")
    if method == "fd":
        g = gradient(record, inputs, names)
        theta_inf = max((float(np.max(np.abs(_as_f64(inputs[n]))))
                         for n in names), default=0.0)
        fd_step = 1e-4 * (1.0 + theta_inf)
        plus, minus = dict(inputs), dict(inputs)
        for name in names:
            base, vv = _as_f64(inputs[name]), _as_f64(g[name])
            plus[name] = base + fd_step * vv
            minus[name] = base - fd_step * vv
        g_plus = gradient(record, plus, names)
        g_minus = gradient(record, minus, names)
        return {name: _check_finite((g_plus[name] - g_minus[name])
                                    / (2.0 * fd_step), f"hvp[{name}]")
                for name in names}
    raise ValueError(f"unknown HVP method {method!r}")
