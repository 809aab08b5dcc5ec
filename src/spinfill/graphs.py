"""Marked plane multigraphs with rotation systems.

A graph is a vertex tuple, an edge tuple of (u, v, label) triples, an
optional marked vertex and an optional rotation system.  Darts are
(edge_index, end) pairs with end in {0, 1}; the rotation at a vertex
lists its incident darts in counterclockwise order, which pins an
embedding in the oriented sphere.  Loops are not supported.
"""
from __future__ import annotations

import json
from functools import cached_property

from .errors import MalformedInput, SpinfillError


class Frozen:
    """Base of the immutable plain classes.

    __init__ binds the values to _fields in order, each once, through
    object.__setattr__, and cached_property writes the instance dict;
    assigning or deleting an attribute afterwards raises AttributeError.
    Equality is identity; FrozenValue compares by the fields.
    """
    __slots__ = ()
    _fields = ()

    def __init__(self, *values):
        if len(values) != len(self._fields):
            raise TypeError("%s takes %d fields, got %d" % (
                type(self).__name__, len(self._fields), len(values)))
        for name, value in zip(self._fields, values):
            object.__setattr__(self, name, value)

    def __setattr__(self, name, value):
        raise AttributeError("cannot assign to field %r" % (name,))

    def __delattr__(self, name):
        raise AttributeError("cannot delete field %r" % (name,))

    def __repr__(self):
        return "%s(%s)" % (type(self).__name__, ", ".join(
            "%s=%r" % (f, getattr(self, f)) for f in self._fields))


class FrozenValue(Frozen):
    """A Frozen record equal to another of its exact type with equal
    fields."""
    __slots__ = ()

    def _values(self):
        return tuple(getattr(self, f) for f in self._fields)

    def __eq__(self, other):
        if type(other) is not type(self):
            return NotImplemented
        return self._values() == other._values()

    def __hash__(self):
        return hash(self._values())


class MarkedGraph(Frozen):
    _fields = ("vertices", "edges", "marked", "rotations")

    def __init__(self, vertices, edges, marked=None, rotations=None):
        seen = set(vertices)
        if len(seen) != len(vertices):
            raise MalformedInput("duplicate vertex ids")
        if marked is not None and marked not in seen:
            raise MalformedInput("marked vertex %r not in graph" % (marked,))
        for u, v, _ in edges:
            if u not in seen or v not in seen:
                raise MalformedInput("edge endpoint not in vertex set")
            if u == v:
                raise MalformedInput("loop edges are not supported")
        # edges are (u, v, label); rotations, per vertex, a tuple of
        # darts, ccw
        super().__init__(vertices, edges, marked, rotations)
        if rotations is not None:
            _validate_rotations(self)

    @cached_property
    def index(self):
        return {v: i for i, v in enumerate(self.vertices)}

    @cached_property
    def degrees(self):
        deg = {v: 0 for v in self.vertices}
        for u, v, _ in self.edges:
            deg[u] += 1
            deg[v] += 1
        return deg

    def degree(self, v):
        return self.degrees[v]

    @cached_property
    def neighbors(self):
        nbr = {v: set() for v in self.vertices}
        for u, v, _ in self.edges:
            nbr[u].add(v)
            nbr[v].add(u)
        return nbr

    def endpoint(self, dart):
        e, end = dart
        u, v, _ = self.edges[e]
        return u if end == 0 else v

    def is_connected(self):
        if not self.vertices:
            return True
        reached = _reach(self.vertices[0], self.neighbors.__getitem__)
        return len(reached) == len(self.vertices)

    def without_vertex(self, v):
        """Delete a vertex with its edges; rotations are filtered."""
        keep = [i for i, (a, b, _) in enumerate(self.edges) if v not in (a, b)]
        remap = {old: new for new, old in enumerate(keep)}
        new_edges = tuple(self.edges[i] for i in keep)
        new_vertices = tuple(w for w in self.vertices if w != v)
        new_rot = None
        if self.rotations is not None:
            new_rot = tuple(
                tuple((remap[e], end) for (e, end) in self.rotations[self.index[w]]
                      if e in remap)
                for w in new_vertices
            )
        return MarkedGraph(new_vertices, new_edges, marked=None,
                           rotations=new_rot)

    def rotation_of(self, v):
        return self.rotations[self.index[v]]


def _validate_rotations(g: MarkedGraph):
    if len(g.rotations) != len(g.vertices):
        raise SpinfillError("rotation list length != vertex count")
    seen = set()
    for v, rot in zip(g.vertices, g.rotations):
        for dart in rot:
            e, end = dart
            if not (0 <= e < len(g.edges)) or end not in (0, 1):
                raise SpinfillError("bad dart %r" % (dart,))
            if g.endpoint(dart) != v:
                raise SpinfillError("dart %r listed at wrong vertex" % (dart,))
            if dart in seen:
                raise SpinfillError("dart %r listed twice" % (dart,))
            seen.add(dart)
    if len(seen) != 2 * len(g.edges):
        raise SpinfillError("rotation system misses some edge ends")


def _reach(start, neighbors):
    """The set of vertices reached from start; neighbors(v) lists the
    vertices one step from v."""
    seen = {start}
    stack = [start]
    while stack:
        for w in neighbors(stack.pop()):
            if w not in seen:
                seen.add(w)
                stack.append(w)
    return seen


def _dart_orbits(darts, succ):
    """Cycles of the dart permutation succ (a dict), as tuples.

    Each cycle starts at its first dart in the iterable darts, so the
    order of darts fixes the order of the cycles.
    """
    orbits = []
    seen = set()
    for d0 in darts:
        if d0 in seen:
            continue
        orbit = []
        d = d0
        while True:
            orbit.append(d)
            seen.add(d)
            d = succ[d]
            if d == d0:
                break
        orbits.append(tuple(orbit))
    return orbits


def _face_successor(rotations):
    """Face permutation of a rotation system: from dart d, walk the edge
    to its far end and turn to the next dart counterclockwise there."""
    succ = {}
    for rot in rotations:
        n = len(rot)
        for i, (e, end) in enumerate(rot):
            succ[(e, 1 - end)] = rot[(i + 1) % n]
    return succ


def trace_faces(g: MarkedGraph):
    """Face orbits of the rotation system.

    Each face is a tuple of darts, listed in the order of its first
    dart (edge index, then end).  Every dart lies on exactly one face.
    """
    if g.rotations is None:
        raise SpinfillError("graph carries no rotation system")
    darts = ((e, end) for e in range(len(g.edges)) for end in (0, 1))
    return _dart_orbits(darts, _face_successor(g.rotations))


def euler_check(g: MarkedGraph):
    """Genus-zero check V - E + F = 2 for a connected embedded graph."""
    if not g.is_connected():
        raise SpinfillError("embedded graph must be connected")
    genus_check(g, trace_faces(g))


def genus_check(g: MarkedGraph, faces):
    """V - E + F = 2 for an embedded graph already known to be
    connected, with faces as trace_faces(g); a lone vertex has one
    face and no darts."""
    if len(g.vertices) - len(g.edges) + max(len(faces), 1) != 2:
        raise SpinfillError("rotation system has positive genus")


def default_outer_dart(faces):
    """Deterministic outer-face choice among faces (trace_faces): a
    dart of the largest face, or None when there are none.

    Ties break toward the face containing the smallest dart.  Only the
    choice of unbounded face distinguishes a plane drawing from the
    sphere embedding, so any fixed rule will do.
    """
    best = None
    for face in faces:
        key = (-len(face), min(face))
        if best is None or key < best[0]:
            best = (key, face[0])
    return best[1] if best else None


def _check_id(x):
    """Document ids are ints (not bools) or strings."""
    if isinstance(x, bool) or not isinstance(x, (int, str)):
        raise MalformedInput("id %r is neither an integer nor a string" % (x,))


def _as_document(text):
    if isinstance(text, (dict, list)):
        return text
    try:
        return json.loads(text)
    except (ValueError, TypeError, RecursionError) as exc:
        # ValueError covers JSONDecodeError and over-long integers
        raise MalformedInput("not a valid document: %s" % exc) from exc


def _is_int(x):
    """A JSON integer: bool is an int subclass, and true would read as 1."""
    return isinstance(x, int) and not isinstance(x, bool)


def _check_int(x, what):
    """Numbers in documents are never rounded or coerced."""
    if not _is_int(x):
        raise MalformedInput("%s %r is not an integer" % (what, x))
    return x


def _edge_list(doc):
    edges = doc.get("edges", [])
    if not isinstance(edges, list):
        raise MalformedInput("edges must be a list, got %r" % (edges,))
    return edges


def _vertex_ids(doc):
    """The 'vertices' entries of a document and their ids.

    Each entry must be an object with an "id"; the entries are checked
    one by one only to word the first fault.
    """
    entries = doc["vertices"]
    if not isinstance(entries, list):
        raise MalformedInput("'vertices' must be a list, got %r" % (entries,))
    try:
        return entries, tuple(v["id"] for v in entries)
    except (TypeError, KeyError):
        for i, v in enumerate(entries):
            if not isinstance(v, dict) or "id" not in v:
                raise MalformedInput('vertex entry %d must be an object '
                                     'with an "id"' % i) from None
        raise


def _check_text(ids):
    """String ids are written out as UTF-8 text, which has no lone
    surrogates, though JSON can spell them."""
    strings = [v for v in ids if isinstance(v, str)]
    try:
        "".join(strings).encode("utf-8")
    except UnicodeEncodeError:
        for v in strings:
            try:
                v.encode("utf-8")
            except UnicodeEncodeError:
                raise MalformedInput("id %r is not valid Unicode text"
                                     % (v,)) from None


def _check_vertex_ids(vertices):
    """Vertex ids of a document: valid ids with distinct str() forms,
    since vertices are ordered and keyed by those forms, and printable
    as text."""
    if not set(map(type, vertices)) <= {int, str}:
        for v in vertices:
            _check_id(v)
    if len(set(map(str, vertices))) != len(vertices):
        raise MalformedInput("duplicate vertex ids (compared as strings)")
    _check_text(vertices)


def parse_graph_doc(text):
    """Parse a graph document into its components.

    {"vertices": [{"id", "weight"?}], "edges": [{"u","v","sign"?}] or
    [[u, v], ...], "rotations": {vertex: [edge indices]}?, "marked": id?,
    "outer": [edge, end]?}

    Returns (graph, weights, signs, outer); weights is None when no
    vertex carries one.
    """
    doc = _as_document(text)
    if not isinstance(doc, dict) or "vertices" not in doc:
        raise MalformedInput("graph document needs a 'vertices' list")
    entries, vertices = _vertex_ids(doc)
    weights = None
    if any("weight" in v for v in entries):
        weights = tuple(_check_int(v.get("weight", 0), "weight")
                        for v in entries)
    _check_vertex_ids(vertices)
    edges = []
    signs = []
    for k, e in enumerate(_edge_list(doc)):
        if isinstance(e, dict):
            try:
                u, v = e["u"], e["v"]
            except KeyError as exc:
                raise MalformedInput("edge %d misses an endpoint" % k) from exc
            sign = _check_int(e.get("sign", 1), "edge sign")
        elif isinstance(e, (list, tuple)) and len(e) >= 2:
            u, v = e[0], e[1]
            sign = 1
        else:
            raise MalformedInput("edge %r is not a pair" % (e,))
        if sign not in (1, -1):
            raise MalformedInput("edge sign must be +1 or -1")
        _check_id(u)
        _check_id(v)
        edges.append((u, v, k))
        signs.append(sign)
    rotations = None
    if "rotations" in doc:
        rot_doc = doc["rotations"]
        if not isinstance(rot_doc, dict):
            raise MalformedInput("rotations must map vertices to edge lists")
        rotations = []
        for v in vertices:
            key = v if v in rot_doc else str(v)
            if key not in rot_doc:
                raise SpinfillError("rotation missing for vertex %r" % (v,))
            if not isinstance(rot_doc[key], list):
                raise MalformedInput("rotation of vertex %r is not a list"
                                     % (v,))
            rot = []
            for e_idx in rot_doc[key]:
                _check_int(e_idx, "rotation edge")
                if not 0 <= e_idx < len(edges):
                    raise SpinfillError("rotation cites unknown edge %r" % (e_idx,))
                u, w, _ = edges[e_idx]
                if v == u:
                    rot.append((e_idx, 0))
                elif v == w:
                    rot.append((e_idx, 1))
                else:
                    raise SpinfillError(
                        "vertex %r lists edge %r it does not touch" % (v, e_idx))
            rotations.append(tuple(rot))
        rotations = tuple(rotations)
    marked = doc.get("marked")
    if marked is not None:
        _check_id(marked)
        _check_text((marked,))
    graph = MarkedGraph(vertices, tuple(edges), marked=marked,
                        rotations=rotations)
    outer = doc.get("outer")
    if outer is not None:
        if not (isinstance(outer, list) and len(outer) == 2
                and all(map(_is_int, outer))
                and 0 <= outer[0] < len(edges) and outer[1] in (0, 1)):
            raise MalformedInput("outer must be [edge index, end 0 or 1], "
                                 "got %r" % (outer,))
        outer = tuple(outer)
    return graph, weights, tuple(signs), outer


def graph_to_doc(g: MarkedGraph):
    """Serialize a graph back into the document shape."""
    doc = {"vertices": [{"id": v} for v in g.vertices],
           "edges": [[u, v] for (u, v, _) in g.edges]}
    if g.marked is not None:
        doc["marked"] = g.marked
    if g.rotations is not None:
        doc["rotations"] = {
            str(v): [e for (e, _) in g.rotations[g.index[v]]]
            for v in g.vertices
        }
    return doc
