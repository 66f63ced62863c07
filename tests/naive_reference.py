"""Brute-force re-implementations used only for differential testing.

Everything here is written against the bare definitions with subset or
path enumeration, no shared logic with the library's detectors, so a bug
would have to appear twice to slip through.  The two exceptions are frozen
earlier copies of library code: `extend_waves_reference`, of
`Coloring.extend`, which pins the order-dependent parts of its output, and
`search_chronological_reference`, of `coloring.search`, which holds the
search to the same status, branch count and colouring.
"""

from collections import deque
from itertools import combinations

from dimkit.coloring import Coloring, Contradiction
from dimkit.decomposition import RadiusExceeded, apply_initial_facts, build_levels, forced_and_anchors
from dimkit.graph import Graph, bits, connected_components
from dimkit.oracle import all_dims


def _induced_degrees(g: Graph, verts):
    mask = 0
    for v in verts:
        mask |= 1 << v
    return {v: (g.rows[v] & mask).bit_count() for v in verts}


def _induced_edge_count(g: Graph, verts) -> int:
    return sum(_induced_degrees(g, verts).values()) // 2


def k4_sets_naive(g: Graph) -> set[frozenset]:
    out = set()
    for quad in combinations(range(g.n), 4):
        if _induced_edge_count(g, quad) == 6:
            out.add(frozenset(quad))
    return out


def dominating_edge_naive(g: Graph, comp: int):
    """The first edge (u, v), u < v, in lexicographic order, inside comp
    whose endpoints meet every edge inside comp, or None."""
    edges = [(u, v) for u, v in g.edges() if comp >> u & 1 and comp >> v & 1]
    for u, v in sorted(edges):
        if all({a, b} & {u, v} for a, b in edges):
            return (u, v)
    return None


def diamond_hits_naive(g: Graph) -> set[tuple[frozenset, tuple]]:
    """(vertex set, forced mid edge) for every induced diamond."""
    out = set()
    for quad in combinations(range(g.n), 4):
        if _induced_edge_count(g, quad) != 5:
            continue
        deg = _induced_degrees(g, quad)
        mids = sorted(v for v in quad if deg[v] == 3)
        if len(mids) == 2:
            out.add((frozenset(quad), (mids[0], mids[1])))
    return out


def butterfly_hits_naive(g: Graph) -> set[tuple[frozenset, frozenset]]:
    """(vertex set, the two peripheral edges) for every induced butterfly:
    two triangles sharing one vertex and nothing else."""
    out = set()
    for five in combinations(range(g.n), 5):
        if _induced_edge_count(g, five) != 6:
            continue
        deg = _induced_degrees(g, five)
        centers = [v for v in five if deg[v] == 4]
        if len(centers) != 1 or any(deg[v] != 2 for v in five if v != centers[0]):
            continue
        wings = [v for v in five if v != centers[0]]
        periph = frozenset(
            (min(u, v), max(u, v))
            for u, v in combinations(wings, 2)
            if g.has_edge(u, v)
        )
        if len(periph) == 2:
            out.add((frozenset(five), periph))
    return out


def central_vertex_naive(g: Graph, within: int) -> int:
    """Vertex of minimum eccentricity in the subgraph induced by `within`,
    smallest id on ties, by one plain BFS per vertex; raises ValueError on
    an empty or disconnected scope."""
    verts = [v for v in range(g.n) if within >> v & 1]
    if not verts:
        raise ValueError("empty scope")
    adj = {v: [u for u in verts if g.has_edge(u, v)] for v in verts}
    best_v, best_ecc = None, None
    for s in verts:
        dist = {s: 0}
        queue = deque([s])
        while queue:
            v = queue.popleft()
            for u in adj[v]:
                if u not in dist:
                    dist[u] = dist[v] + 1
                    queue.append(u)
        if len(dist) != len(verts):
            raise ValueError("disconnected scope")
        ecc = max(dist.values())
        if best_ecc is None or ecc < best_ecc:
            best_v, best_ecc = s, ecc
    return best_v


def verify_dim_naive(g: Graph, matching):
    """`oracle.verify_dim` by a walk over g's edges in lexicographic order:
    the same (ok, reason) and the same ValueError messages, the reason
    naming the first violating edge."""
    in_match = [False] * g.n
    partner = [-1] * g.n
    seen = set()
    for e in matching:
        u, v = e
        if not (0 <= u < g.n and 0 <= v < g.n) or u == v or not g.has_edge(u, v):
            raise ValueError(f"matching edge ({u},{v}) is not an edge of the graph")
        key = (u, v) if u < v else (v, u)
        if key in seen:
            raise ValueError(f"matching repeats edge ({u},{v})")
        seen.add(key)
        if in_match[u] or in_match[v]:
            w = u if in_match[u] else v
            return False, f"vertex {w} lies in two matching edges"
        in_match[u] = in_match[v] = True
        partner[u], partner[v] = v, u
    for u, v in g.edges():
        if in_match[u] and in_match[v]:
            if partner[u] != v:
                return False, f"edge ({u},{v}) dominated twice"
        elif not in_match[u] and not in_match[v]:
            return False, f"edge ({u},{v}) not dominated"
    return True, None


def pick_unknown_naive(comp: int, c: Coloring) -> int:
    """The complete search's branch vertex by one scan over the unknown
    vertices of comp: most colored neighbors, then highest degree in comp,
    then smallest id; -1 when nothing is unknown."""
    g = c.g
    unknown = c.unknown_mask(comp)
    colored = comp & ~unknown
    best = -1
    best_key = (-1, -1)
    for v in bits(unknown):
        key = ((g.rows[v] & colored).bit_count(), (g.rows[v] & comp).bit_count())
        if key > best_key:
            best_key = key
            best = v
    return best


def coloring_is_complete_dim(c: Coloring, scope: int | None = None) -> bool:
    """The colors of scope (default: every vertex) read as a dominating
    induced matching, by the definition alone: every vertex of scope is
    exactly one of white and black, no white of scope has a white
    neighbor, and every black of scope has exactly one black neighbor.
    Neighbors are counted in the whole graph."""
    g = c.g
    for v in range(g.n):
        if scope is not None and not scope >> v & 1:
            continue
        white, black = c.white >> v & 1, c.black >> v & 1
        if white == black:
            return False
        nbrs = g.neighbors(v)
        if white and any(c.white >> u & 1 for u in nbrs):
            return False
        if black and sum(c.black >> u & 1 for u in nbrs) != 1:
            return False
    return True


def propagate_naive(g: Graph, white: int, black: int):
    """The fixpoint of the coloring rules from the masks white and black,
    applied one vertex at a time until a sweep over all vertices changes
    nothing:
      (a) a white vertex makes every neighbor black;
      (b) a black vertex with one black neighbor is partnered with it, and
          every other neighbor of either becomes white;
      (c) a black vertex with no black neighbor and one non-white neighbor
          makes that neighbor black;
      (d) a vertex given both colors, two adjacent whites, a black with two
          black neighbors, or a black with only white neighbors is a
          contradiction;
      (e) an uncolored vertex with two black neighbors becomes white.
    Returns None on a contradiction, else the (white, black, mated) masks,
    mated holding the partnered vertices."""
    color = {}
    for v in range(g.n):
        if white >> v & 1 and black >> v & 1:
            return None
        if white >> v & 1:
            color[v] = "white"
        elif black >> v & 1:
            color[v] = "black"
    mated = set()
    changed = True
    while changed:
        changed = False
        for v in range(g.n):
            nbrs = g.neighbors(v)
            forced = []
            if color.get(v) == "white":
                forced = [(u, "black") for u in nbrs]
            elif color.get(v) == "black":
                blacks = [u for u in nbrs if color.get(u) == "black"]
                if len(blacks) >= 2:
                    return None
                if blacks:
                    u = blacks[0]
                    mated |= {u, v}
                    forced = [(w, "white") for w in set(nbrs + g.neighbors(u)) - {u, v}]
                else:
                    candidates = [u for u in nbrs if color.get(u) != "white"]
                    if not candidates:
                        return None
                    if len(candidates) == 1:
                        forced = [(candidates[0], "black")]
            elif sum(color.get(u) == "black" for u in nbrs) >= 2:
                forced = [(v, "white")]
            for u, col in forced:
                if u not in color:
                    color[u] = col
                    changed = True
                elif color[u] != col:
                    return None
    masks = {"white": 0, "black": 0}
    for v, col in color.items():
        masks[col] |= 1 << v
    return masks["white"], masks["black"], sum(1 << v for v in mated)


def extend_waves_reference(c: Coloring, white: int = 0, black: int = 0) -> Contradiction | None:
    """A frozen copy of `Coloring.extend` as it stood before its masks
    stopped being complemented: the same waves, the whites walked one at a
    time in id order, the state read and written on `c` directly.  Kept so
    a rewrite of `extend` is held to the same reported contradiction (rule
    and witnesses, which depend on the order of work) and the same partly
    extended state after one, not only to the same fixpoint."""
    rows = c.g.rows
    while white or black:
        clash = white & black | white & c.black | black & c.white
        if clash:
            return Contradiction("conflict", (next(bits(clash)),))
        white &= ~c.white
        black &= ~c.black
        c.white |= white
        c.black |= black
        forced_white = forced_black = 0
        touched = black
        rest = white
        while rest:
            low = rest & -rest
            rest ^= low
            v = low.bit_length() - 1
            row = rows[v]
            ww = row & c.white
            if ww:
                return Contradiction("white-white-edge", (v, next(bits(ww))))
            forced_black |= row
            touched |= row & c.black & ~c.mated
        while touched:
            low = touched & -touched
            touched ^= low
            v = low.bit_length() - 1
            row = rows[v]
            nb_black = row & c.black
            k = nb_black.bit_count()
            if k >= 2:
                it = bits(nb_black)
                return Contradiction("two-black-neighbors", (v, next(it), next(it)))
            if k == 0:
                cand = row & ~c.white
                if not cand:
                    return Contradiction("black-unmatchable", (v,))
                if cand.bit_count() == 1:
                    forced_black |= cand
                elif low & black:
                    while cand:
                        w = cand & -cand
                        cand ^= w
                        if rows[w.bit_length() - 1] & c.black != low:
                            forced_white |= w
            elif not c.mated >> v & 1:
                u = nb_black.bit_length() - 1
                if rows[u] & c.black != 1 << v:
                    it = bits(rows[u] & c.black)
                    return Contradiction("two-black-neighbors", (u, next(it), next(it)))
                pair = 1 << v | nb_black
                c.mated |= pair
                forced_white |= (row | rows[u]) & ~pair
        white, black = forced_white, forced_black
    return None


def search_chronological_reference(c: Coloring, pick, budget: int) -> tuple[str, int]:
    """A frozen copy of `coloring.search`: plain chronological
    backtracking, black first, one stack entry (snapshot, vertex bit,
    black) per pending decision.  Returns (status, branches) as `search`
    does, but counts the branch past the budget."""
    v = pick(c)
    if v < 0:
        return "colored", 0
    branches = 0
    stack = [(c.snapshot(), 1 << v, True)]
    while stack:
        snap, bit, black = stack.pop()
        c.restore(snap)
        if black:
            stack.append((snap, bit, False))
        branches += 1
        if branches > budget:
            return "budget", branches
        bad = c.extend(black=bit) if black else c.extend(white=bit)
        if bad is not None:
            continue
        u = pick(c)
        if u < 0:
            return "colored", branches
        stack.append((c.snapshot(), 1 << u, True))
    return "infeasible", branches


def _is_induced_path(g: Graph, seq) -> bool:
    k = len(seq)
    for i in range(k):
        for j in range(i + 1, k):
            adjacent = g.has_edge(seq[i], seq[j])
            if adjacent != (j == i + 1):
                return False
    return True


def induced_paths_naive(g: Graph, k: int) -> set[tuple]:
    """All induced paths on k vertices, one orientation per path."""
    out = set()

    def grow(seq):
        if len(seq) == k:
            if seq[0] < seq[-1]:
                out.add(tuple(seq))
            return
        for w in range(g.n):
            if w in seq or not g.has_edge(seq[-1], w):
                continue
            if any(g.has_edge(w, u) for u in seq[:-1]):
                continue
            seq.append(w)
            grow(seq)
            seq.pop()

    for s in range(g.n):
        grow([s])
    return out


def induced_path_dfs_reference(g: Graph, k: int, within: int | None = None):
    """(path, steps) of the recursive DFS that find_induced_path replaced:
    the first induced path on k vertices inside `within` (or None) and the
    number of steps find_induced_path spends to reach that answer, so a
    node_limit of steps decides and steps - 1 raises ScanBudget."""
    scope = g.full_mask() if within is None else within
    if scope.bit_count() < k:
        return None, 0
    if k == 1:
        return (next(bits(scope)),), 0
    steps = [0]

    def rec(path, path_mask, banned):
        steps[0] += 1
        if len(path) == k:
            return tuple(path)
        tip = path[-1]
        cand = g.rows[tip] & ~banned & ~path_mask & scope
        for w in bits(cand):
            found = rec(path + [w], path_mask | (1 << w), banned | g.rows[tip])
            if found:
                return found
        return None

    for s in bits(scope):
        for t in bits(g.rows[s] & scope):
            found = rec([s, t], (1 << s) | (1 << t), g.rows[s])
            if found:
                return found, steps[0]
    return None, steps[0]


def induced_cycle_sets_naive(g: Graph, max_len: int) -> set[frozenset]:
    """Vertex sets whose induced subgraph is a cycle of length 3..max_len."""
    out = set()
    for size in range(3, max_len + 1):
        for verts in combinations(range(g.n), size):
            deg = _induced_degrees(g, verts)
            if any(d != 2 for d in deg.values()):
                continue
            mask = 0
            for v in verts:
                mask |= 1 << v
            comps = connected_components(g, mask)
            if len(comps) == 1:
                out.add(frozenset(verts))
    return out


# -- trial-stage soundness harness -------------------------------------------


def trial_facts(g: Graph, x: int, y: int):
    """Run the xy trial through level building and its level facts on a
    fresh coloring.

    Returns ("infeasible", reason) when a stage proves no solution matches
    xy, ("skip", reason) when a stage cannot run (radius), and
    ("ok", (forced, white, black)) otherwise.
    """
    c = Coloring(g)
    try:
        levels = build_levels(g, g.full_mask(), x, y)
    except RadiusExceeded as exc:
        return "skip", str(exc)
    bad = apply_initial_facts(c, levels)
    if bad:
        return "infeasible", str(bad)
    return "ok", (set(forced_and_anchors(c, levels)[0]), c.white, c.black)


def assert_trial_facts_sound(g: Graph, x: int, y: int):
    """Every fact derived under the assumption "xy is matched" must hold in
    every actual solution containing xy; infeasible means there are none.

    The stages exercised use no long-path arguments, so the property holds
    on every graph.
    """
    e = (x, y) if x < y else (y, x)
    dims_with_xy = [m for m in all_dims(g) if e in m]
    status, payload = trial_facts(g, x, y)
    if status == "skip":
        return 0
    if status == "infeasible":
        assert not dims_with_xy, (
            f"trial said no solution matches {e} but oracle found {dims_with_xy[0]}: {payload}"
        )
        return len(dims_with_xy) == 0
    forced, white, black = payload
    for m in dims_with_xy:
        matched = 0
        for u, v in m:
            matched |= (1 << u) | (1 << v)
        assert forced <= set(m), f"forced {forced - set(m)} missing from {m}"
        assert white & matched == 0, f"whitened vertex is matched in {m}"
        assert black & ~matched == 0, f"blackened vertex is unmatched in {m}"
    return len(dims_with_xy)
