"""Reference implementations and test-only helpers the tests compare against.

Most of it is deliberately naive: enumerate paths, join relations
pairwise, run Dijkstra over the time-expanded graph.  None of that shares
code with the package beyond the Arc/Fst data types, so agreement is
evidence rather than tautology.  It holds:

* path and relation oracles: enumerate_language, relation_compose,
  substitute_language, acceptor_language, best_accepting_weight;
* decoding oracles: oracle_decode (exact) and oracle_beam_decode;
* the composition pairing rule, re-derived twice: pair_state_arcs, one
  composed state with no index, and compose_static / compose_static_full,
  the whole filtered composition breadth-first, each independent of
  compose.expand_pair_state;
* is_precomposable, the shareable rule re-derived by scanning a root
  state's arcs for the class label, independent of
  PublicCache.shareable and its bridge set;
* replace_view, a ReplaceView over its own bridge_states, and inside_id,
  the view's id of a state inside the bound FST;
* expansions, a cache layer's expansions as comparable values;
* lookup, the one-state form of the rule decoder._eps_closure applies
  to read the two cache layers, counting the hit it finds;
* materialize, the whole lazy graph of a session through lookup and
  cache.expand, numbered the way compose_static numbers its states;
* the staged contact compiler, the independent re-derivation of
  lmbuild.build_contact_fst: prefix_tree, minimize_acyclic (a DFS
  postorder minimizer for any acyclic acceptor) and remove_disambig,
  chained by staged_contact_fst;
* dump_public_cache_v1, the first public cache dump format, which wrote
  every sealed arc and weight, for the determinism digests;
* shortest_path, a tropical single shortest path;
* read_text_fst and read_symbols, minimal readers for exactly what
  fst.write_text_fst and fst.write_symbols emit, for round-trip tests.

Float discipline: oracles accumulate weights left to right along each
path, the same order the production code uses, so exact equality
assertions are meaningful.  Random-input tests additionally stick to
dyadic weights to keep cross-path sums associative.
"""

from __future__ import annotations

import heapq
import hashlib
from dataclasses import dataclass
from math import inf
from typing import NamedTuple, Optional

from lazyfst.cache import (CachedExpansion, PublicCache, Session, expand,
                           fingerprint)
from lazyfst.compose import FilterState
from lazyfst.errors import BuildError, CompositionSizeError
from lazyfst.fst import EPS, Arc, Fst, FstBuilder, SymbolTable
from lazyfst.lmbuild import contact_strings
from lazyfst.replace import ClassBinding, ReplaceView, bridge_states
from lazyfst.semiring import ZERO

MAX_PATHS = 200_000


def start_of(machine) -> int:
    """An Fst's start state; a ReplaceView starts where its root does."""
    return getattr(machine, "root", machine).start


def enumerate_language(machine, start=None, max_arcs: int = 64) -> dict:
    """Weighted language {(ilabels, olabels): min weight} by path DFS.

    Works on anything with arcs_of/final_weight (Fst or a replace view);
    states only need to be hashable.  Paths longer than `max_arcs` arcs
    are cut off, so the result is exact for machines whose accepting
    paths all fit (acyclic ones in particular).
    """
    if start is None:
        start = start_of(machine)
    lang: dict[tuple, float] = {}
    budget = [MAX_PATHS]

    def walk(state, ilabels, olabels, weight, depth):
        budget[0] -= 1
        if budget[0] < 0:
            raise RuntimeError("path enumeration exploded; shrink the input")
        rho = machine.final_weight(state)
        if rho != inf:
            key = (tuple(ilabels), tuple(olabels))
            total = weight + rho
            if total < lang.get(key, inf):
                lang[key] = total
        if depth == max_arcs:
            return
        # a view's arcs are plain tuples: (ilabel, olabel, weight, nextstate)
        for il, ol, w, dst in machine.arcs_of(state):
            if il != EPS:
                ilabels.append(il)
            if ol != EPS:
                olabels.append(ol)
            walk(dst, ilabels, olabels, weight + w, depth + 1)
            if il != EPS:
                ilabels.pop()
            if ol != EPS:
                olabels.pop()

    walk(start, [], [], 0.0, 0)
    return lang


def relation_compose(lang1: dict, lang2: dict) -> dict:
    """Pairwise join of two weighted transduction relations: for every
    (i, x) in lang1 and (x, o) in lang2 the pair (i, o) costs the tropical
    sum over all middles."""
    out: dict[tuple, float] = {}
    for (i1, o1), w1 in lang1.items():
        for (i2, o2), w2 in lang2.items():
            if o1 != i2:
                continue
            key = (i1, o2)
            w = w1 + w2
            if w < out.get(key, inf):
                out[key] = w
    return out


def substitute_language(root_lang: dict, class_langs: dict[int, dict]) -> dict:
    """Replace class tokens in an acceptor language (keys are token tuples)
    by whole class languages (acceptor-keyed as well); weights add."""
    out: dict[tuple, float] = {}

    def expand(tokens, idx, acc, weight):
        if idx == len(tokens):
            key = tuple(acc)
            if weight < out.get(key, inf):
                out[key] = weight
            return
        tok = tokens[idx]
        if tok in class_langs:
            for string, w in class_langs[tok].items():
                expand(tokens, idx + 1, acc + list(string), weight + w)
        else:
            expand(tokens, idx + 1, acc + [tok], weight)

    for string, w in root_lang.items():
        expand(list(string), 0, [], w)
    return out


def acceptor_language(machine, start=None, max_arcs: int = 64) -> dict:
    """enumerate_language for acceptors, keyed by the single string."""
    lang = enumerate_language(machine, start=start, max_arcs=max_arcs)
    out: dict[tuple, float] = {}
    for (istr, ostr), w in lang.items():
        assert istr == ostr, "machine is not an acceptor"
        if w < out.get(istr, inf):
            out[istr] = w
    return out


def best_accepting_weight(fst, max_arcs: int = 64) -> float:
    """Tropical weight of the best accepting path (inf when none),
    straight off the enumerated language."""
    lang = enumerate_language(fst, max_arcs=max_arcs)
    return min(lang.values(), default=inf)


def oracle_decode(fst, scores):
    """Exact best hypothesis by Dijkstra over the time-expanded graph.

    Nodes are (frame, state); emitting arcs advance the frame and pay
    graph plus acoustic cost, epsilon-input arcs stay within the frame.
    Returns (cost, olabels) or None.  Cost arithmetic matches the
    decoder's accumulation order exactly.
    """
    T = scores.num_frames
    start = (0, fst.start)
    best = {start: 0.0}
    parent: dict[tuple, object] = {start: None}
    heap = [(0.0, 0, fst.start)]
    goal_cost = inf
    goal_node = None
    while heap:
        cost, t, state = heapq.heappop(heap)
        node = (t, state)
        if cost > best.get(node, inf):
            continue
        if cost >= goal_cost:
            break
        if t == T:
            rho = fst.final_weight(state)
            if rho != inf and cost + rho < goal_cost:
                goal_cost = cost + rho
                goal_node = node
        row = scores.row(t) if t < T else []
        for arc in fst.arcs_of(state):
            if arc.ilabel == EPS:
                nt, nc = t, cost + arc.weight
            elif t < T:
                acoustic = row[arc.ilabel] if arc.ilabel < len(row) else inf
                if acoustic == inf:
                    continue
                nt, nc = t + 1, cost + arc.weight + acoustic
            else:
                continue
            nxt = (nt, arc.nextstate)
            if nc < best.get(nxt, inf):
                best[nxt] = nc
                parent[nxt] = (node, arc.olabel)
                heapq.heappush(heap, (nc, nt, arc.nextstate))
    if goal_node is None:
        return None
    labels: list[int] = []
    node = goal_node
    while parent[node] is not None:
        node, olabel = parent[node]
        if olabel != EPS:
            labels.append(olabel)
    labels.reverse()
    return goal_cost, tuple(labels)


def _relax(tokens: dict, state, cost: float, labels: frozenset) -> bool:
    """Offer `state` a path of `cost` with output `labels`; an equal cost
    adds its label sequences.  True when the token changed."""
    cur = tokens.get(state)
    if cur is None or cost < cur[0]:
        tokens[state] = (cost, labels)
        return True
    if cost == cur[0] and not labels <= cur[1]:
        tokens[state] = (cost, cur[1] | labels)
        return True
    return False


def _extend(labels: frozenset, olabel: int) -> frozenset:
    if olabel == EPS:
        return labels
    return frozenset(seq + (olabel,) for seq in labels)


def oracle_beam_decode(fst, scores, beam: float):
    """Frame-synchronous beam search with the beam applied only after a
    full epsilon closure, and no cut on the number of tokens.

    Each frame advances every surviving token over its emitting arcs,
    closes over epsilon arcs by relaxing them until nothing changes, and
    keeps the tokens within `beam` of the cheapest.  A token holds every
    output label sequence of its cheapest paths, so ties need no
    tie-break.  Returns (best, survivors): best is None or (cost, the
    label sequences of every cheapest final path), and survivors counts
    the tokens kept after the start closure and after each frame, up to
    the frame that emits nothing, that are not dead ends: a dead end has
    no arc and no final weight, so it can neither emit nor end a path,
    and the decoder does not keep it.  The beam is still measured from
    the cheapest token, dead or not.  The closure ends on any graph
    without a zero-weight epsilon cycle that writes a label.
    """
    def close(tokens):
        changed = True
        while changed:
            changed = False
            for state, (cost, labels) in list(tokens.items()):
                for arc in fst.arcs_of(state):
                    if arc.ilabel == EPS:
                        changed |= _relax(tokens, arc.nextstate,
                                          cost + arc.weight,
                                          _extend(labels, arc.olabel))
        floor = min(cost for cost, _ in tokens.values())
        return {state: tok for state, tok in tokens.items()
                if tok[0] <= floor + beam}

    def live(tokens):
        return sum(1 for state in tokens
                   if fst.arcs_of(state) or fst.final_weight(state) != inf)

    active = close({fst.start: (0.0, frozenset({()}))})
    survivors = [live(active)]
    for t in range(scores.num_frames):
        row = scores.row(t)
        emitted: dict = {}
        for state, (cost, labels) in active.items():
            for arc in fst.arcs_of(state):
                if arc.ilabel == EPS or arc.ilabel >= len(row):
                    continue
                acoustic = row[arc.ilabel]
                if acoustic == inf:
                    continue
                _relax(emitted, arc.nextstate, cost + arc.weight + acoustic,
                       _extend(labels, arc.olabel))
        if not emitted:
            return None, survivors
        active = close(emitted)
        survivors.append(live(active))
    best_cost = inf
    best_labels: frozenset = frozenset()
    for state, (cost, labels) in active.items():
        rho = fst.final_weight(state)
        if rho == inf:
            continue
        total = cost + rho
        if total < best_cost:
            best_cost, best_labels = total, labels
        elif total == best_cost:
            best_labels |= labels
    if best_cost == inf:
        return None, survivors
    return (best_cost, best_labels), survivors


def view_state_key(t2, state: int) -> tuple:
    """Rank of a t2 state in the order composed arcs sort by: a root
    state q (or any state of a plain Fst) as (0, q), a state inside the
    class FST at its state qp, resuming at root state ret, as
    (2, qp, ret), so every root state comes first."""
    num_root = getattr(t2, "num_root", None)
    if num_root is None or state < num_root:
        return (0, state)
    qp, ret = divmod(state - num_root, num_root)
    return (2, qp, ret)


def view_arc_key(t2, arc) -> tuple:
    """Order of the arcs out of one view state: labels, weight, then the
    destination's rank."""
    ilabel, olabel, weight, dst = arc
    return (ilabel, olabel, weight, view_state_key(t2, dst))


def composed_arc_key(t2, arc) -> tuple:
    """Order of the arcs out of one composed state: labels, weight, then
    the destination (t1 state, t2 state's rank, filter state)."""
    ilabel, olabel, weight, (q1, q2, f) = arc
    return (ilabel, olabel, weight, q1, view_state_key(t2, q2), f)


def pair_state_arcs(key, t1, t2) -> list:
    """Arcs out of one composed state `(q1, q2, f)`, by the pairing rule
    applied to every pair of a t1 arc and a t2 arc, with no index: equal
    non-epsilon t1 output and t2 input match into filter state 0; a t1
    epsilon output moves into state 1 unless t2 moves have started
    (f == 2); a t2 epsilon input moves into state 2.  Sorted by
    composed_arc_key."""
    q1, q2, f = key
    out = []
    for il1, ol1, w1, d1 in t1.arcs_of(q1):
        if ol1 == EPS:
            if f != 2:
                out.append((il1, EPS, w1, (d1, q2, 1)))
            continue
        for il2, ol2, w2, d2 in t2.arcs_of(q2):
            if il2 == ol1:
                out.append((il1, ol2, w1 + w2, (d1, d2, 0)))
    for il2, ol2, w2, d2 in t2.arcs_of(q2):
        if il2 == EPS:
            out.append((EPS, ol2, w2, (q1, d2, 2)))
    return sorted(out, key=lambda arc: composed_arc_key(t2, arc))


def advance_match(f: FilterState) -> FilterState:
    return FilterState.ANY


def advance_eps1(f: FilterState) -> FilterState:
    if f == FilterState.EPS2_ONLY:
        return FilterState.BLOCKED
    return FilterState.EPS1_ONLY


def advance_eps2(f: FilterState) -> FilterState:
    return FilterState.EPS2_ONLY


@dataclass(frozen=True)
class StaticComposition:
    fst: Fst
    state_of: dict  # (q1, q2, f) -> state id, in discovery order


def compose_static_full(t1: Fst, t2, max_states: int = 1_000_000) -> StaticComposition:
    """Materialize the filtered composition breadth-first.

    States are numbered in discovery order (queue order, arcs sorted the
    same way expand_pair_state sorts them), so repeated runs and the lazy
    layer's empty-cache exploration produce identical numberings.  The
    frozen Fst orders arcs tied on (ilabel, olabel, weight) by destination
    id, where expand_pair_state orders them by destination key.  Raises
    CompositionSizeError when more than `max_states` composed states
    appear.
    """
    start = (t1.start, start_of(t2), int(FilterState.ANY))
    state_of: dict[tuple[int, int, int], int] = {start: 0}
    queue = [start]
    builder = FstBuilder(t1.isyms, getattr(t2, "root", t2).osyms)
    builder.add_state()
    head = 0
    while head < len(queue):
        key = queue[head]
        head += 1
        src = state_of[key]
        q1, q2, f = key

        # Inline re-derivation of the pairing rule; kept separate from
        # expand_pair_state on purpose so the two can check each other.
        generated: list[tuple] = []
        # a view's arcs are plain tuples: (ilabel, olabel, weight, nextstate)
        t2_arcs = t2.arcs_of(q2)
        for il2, ol2, w2, d2 in t2_arcs:
            if il2 != EPS:
                continue
            generated.append((EPS, ol2, w2, (q1, d2, int(advance_eps2(f)))))
        by_il: dict[int, list[tuple]] = {}
        for e2 in t2_arcs:
            by_il.setdefault(e2[0], []).append(e2)
        for e1 in t1.arcs_of(q1):
            if e1.olabel == EPS:
                nf = advance_eps1(f)
                if nf != FilterState.BLOCKED:
                    generated.append((e1.ilabel, EPS, e1.weight,
                                      (e1.nextstate, q2, int(nf))))
            else:
                for _, ol2, w2, d2 in by_il.get(e1.olabel, ()):
                    generated.append((e1.ilabel, ol2, e1.weight + w2,
                                      (e1.nextstate, d2,
                                       int(advance_match(f)))))
        generated.sort()

        for ilabel, olabel, weight, dst_key in generated:
            dst = state_of.get(dst_key)
            if dst is None:
                if len(state_of) >= max_states:
                    raise CompositionSizeError(
                        f"composition exceeded {max_states} states")
                dst = len(state_of)
                state_of[dst_key] = dst
                builder.add_state()
                queue.append(dst_key)
            builder.add_arc(src, ilabel, olabel, weight, dst)
        final = t1.final_weight(q1) + t2.final_weight(q2)
        if final != ZERO:
            builder.set_final(src, final)
    return StaticComposition(builder.freeze(start=0), state_of)


def compose_static(t1: Fst, t2, max_states: int = 1_000_000) -> Fst:
    return compose_static_full(t1, t2, max_states=max_states).fst


def is_precomposable(key: tuple[int, int, int], root: Fst, label: int) -> bool:
    """True when `key`'s t2 side is a root state (below the root's state
    count, so not inside the class FST) with no out-arc carrying the
    class label `label`: the state's arcs are scanned every call."""
    q2 = key[1]
    if q2 >= root.num_states:
        return False
    return all(arc.olabel != label for arc in root.arcs_of(q2))


def replace_view(root: Fst, binding: ClassBinding) -> ReplaceView:
    """The view of `root` under `binding`, with the bridges it takes
    computed here, as a public cache computes them for its sessions."""
    return ReplaceView(root, binding, bridge_states(root, binding.label))


def inside_id(view, qp: int, ret: int) -> int:
    """The id `view` (a ReplaceView) gives the state at `qp` of the bound
    FST, resuming at root state `ret` when that FST accepts."""
    return (qp + 1) * view.num_root + ret


def expansions(cache: PublicCache) -> dict[int, tuple]:
    """`cache.expanded` as {state id: (eps, emit, final weight)}, which
    compare by value."""
    return {sid: (e.eps, e.emit, e.final) for sid, e in cache.expanded.items()}


def lookup(session: Session, state_id: int) -> Optional[CachedExpansion]:
    """The stored expansion of `state_id`, counting the hit; None when
    neither layer holds it.  Sealing numbers the filled public states
    first, so an id below the size of the public layer's dict is public
    and any other is private."""
    public = session.cache.expanded
    if state_id < len(public):
        session.metrics.public_hit += 1
        return public[state_id]
    cached = session.private.expanded.get(state_id)
    if cached is not None:
        session.metrics.private_hit += 1
    return cached


def materialize(session: Session, max_states: int = 1_000_000) -> Fst:
    """Explore the whole lazy graph reachable from the start.

    States are renumbered in breadth-first discovery order, which is the
    same traversal compose_static uses, so a full materialization is
    comparable state-by-state with the static composition regardless of
    what the public cache holds.
    """
    start = session.start_id()
    order: dict[int, int] = {start: 0}
    queue = [start]
    builder = FstBuilder(session.cache.t1.isyms, session.cache.root.osyms)
    builder.add_state()
    head = 0
    while head < len(queue):
        sid = queue[head]
        head += 1
        exp = lookup(session, sid)
        if exp is None:
            exp = expand(sid, session)
        for ilabel, olabel, weight, nextstate in exp.arcs:
            dst = order.get(nextstate)
            if dst is None:
                if len(order) >= max_states:
                    raise CompositionSizeError(
                        f"materialization exceeded {max_states} states")
                dst = len(order)
                order[nextstate] = dst
                builder.add_state()
                queue.append(nextstate)
            builder.add_arc(order[sid], ilabel, olabel, weight, dst)
        if exp.final != ZERO:
            builder.set_final(order[sid], exp.final)
    return builder.freeze(start=0)


def prefix_tree(strings: dict[tuple[int, ...], float]) -> Fst:
    """The acceptor of `strings` as a prefix tree, states numbered as the
    strings are laid in sorted order, each string's weight on its final
    state and every arc weighing 0.  It carries no symbol tables: the
    auxiliary labels lie outside the word table (remove_disambig attaches
    them)."""
    builder = FstBuilder()
    root = builder.add_state()
    children: dict[tuple[int, int], int] = {}
    for string in sorted(strings):
        src = root
        for label in string:
            dst = children.get((src, label))
            if dst is None:
                dst = children[src, label] = builder.add_state()
                builder.add_arc(src, label, label, 0.0, dst)
            src = dst
        builder.set_final(src, strings[string])
    return builder.freeze(start=root)


def _check_acyclic_acceptor(fst: Fst, op: str) -> None:
    for state in fst.states():
        for arc in fst.arcs_of(state):
            if arc.ilabel != arc.olabel:
                raise BuildError(f"{op} expects an acceptor")
    color = [0] * fst.num_states  # 0 unseen, 1 on stack, 2 done
    stack: list[tuple[int, int]] = [(fst.start, 0)]
    color[fst.start] = 1
    while stack:
        state, idx = stack[-1]
        arcs = fst.arcs_of(state)
        if idx == len(arcs):
            color[state] = 2
            stack.pop()
            continue
        stack[-1] = (state, idx + 1)
        nxt = arcs[idx].nextstate
        if color[nxt] == 1:
            raise BuildError(f"{op} requires an acyclic input")
        if color[nxt] == 0:
            color[nxt] = 1
            stack.append((nxt, 0))


def minimize_acyclic(fst: Fst) -> Fst:
    """Merge states with identical onward behavior, leaves first."""
    _check_acyclic_acceptor(fst, "minimize_acyclic")
    order: list[int] = []
    seen = [False] * fst.num_states
    stack: list[tuple[int, int]] = [(fst.start, 0)]
    seen[fst.start] = True
    while stack:
        state, idx = stack[-1]
        arcs = fst.arcs_of(state)
        if idx == len(arcs):
            order.append(state)
            stack.pop()
            continue
        stack[-1] = (state, idx + 1)
        nxt = arcs[idx].nextstate
        if not seen[nxt]:
            seen[nxt] = True
            stack.append((nxt, 0))

    rep_of_sig: dict[tuple, int] = {}
    rep: dict[int, int] = {}
    for state in order:  # postorder: successors already classified
        sig = (fst.finals.get(state),
               tuple((a.ilabel, a.olabel, a.weight, rep[a.nextstate])
                     for a in fst.arcs_of(state)))
        rep[state] = rep_of_sig.setdefault(sig, state)

    keep = sorted({rep[s] for s in rep})
    renum = {old: new for new, old in enumerate(keep)}
    builder = FstBuilder(fst.isyms, fst.osyms)
    builder.ensure_state(len(keep) - 1)
    for old in keep:
        for arc in fst.arcs_of(old):
            builder.add_arc(renum[old], arc.ilabel, arc.olabel, arc.weight,
                            renum[rep[arc.nextstate]])
        if old in fst.finals:
            builder.set_final(renum[old], fst.finals[old])
    return builder.freeze(start=renum[rep[fst.start]])


def remove_disambig(fst: Fst, disambig_ids: frozenset[int],
                    syms: Optional[SymbolTable] = None) -> Fst:
    """Replace auxiliary labels by epsilon; exact duplicates collapse.
    The result carries `syms` as both symbol tables: the auxiliary labels
    lie outside the word table, so the input carries none."""
    builder = FstBuilder(syms, syms)
    builder.ensure_state(fst.num_states - 1)
    for state in fst.states():
        emitted: set[Arc] = set()
        for arc in fst.arcs_of(state):
            il = EPS if arc.ilabel in disambig_ids else arc.ilabel
            ol = EPS if arc.olabel in disambig_ids else arc.olabel
            new = Arc(il, ol, arc.weight, arc.nextstate)
            if new not in emitted:
                emitted.add(new)
                builder.add_arc(state, il, ol, arc.weight, arc.nextstate)
    for state, w in fst.finals.items():
        builder.set_final(state, w)
    return builder.freeze(start=fst.start)


def staged_contact_fst(contacts, phones, word_syms: SymbolTable) -> Fst:
    """The contact FST in stages: the disambiguated strings, their prefix
    tree, minimized, with the auxiliary labels erased."""
    strings, aux_ids = contact_strings(contacts, phones, word_syms)
    return remove_disambig(minimize_acyclic(prefix_tree(strings)), aux_ids,
                           word_syms)


def dump_public_cache_v1(cache: PublicCache) -> str:
    """A sealed public cache as `lazyfst-public-cache 1` dumped it: the
    state table, then each expanded state's final weight and arc count
    (`s id final count`) followed by one `a ilabel olabel weight dst` row
    per sealed arc, weights as repr.  The package's dump names states
    only; this one pins the sealed arcs and weights byte for byte."""
    lines = [f"table {len(cache.keys)}"]
    lines += [f"k {q1} {q2} {f}" for q1, q2, f in cache.keys]
    for state_id in sorted(cache.expanded):
        exp = cache.expanded[state_id]
        lines.append(f"s {state_id} {exp.final!r} {len(exp.arcs)}")
        lines += [f"a {il} {ol} {w!r} {dst}" for il, ol, w, dst in exp.arcs]
    body = "".join(line + "\n" for line in lines)
    return (f"lazyfst-public-cache 1\n"
            f"graph {fingerprint(cache.t1, cache.root, cache.label)}\n"
            f"sha256 {hashlib.sha256(body.encode()).hexdigest()}\n"
            f"{body}")


def edit_distance(ref, hyp) -> int:
    """Plain Levenshtein, for cross-checking the harness scorer."""
    rows = len(ref) + 1
    cols = len(hyp) + 1
    d = [[0] * cols for _ in range(rows)]
    for i in range(rows):
        d[i][0] = i
    for j in range(cols):
        d[0][j] = j
    for i in range(1, rows):
        for j in range(1, cols):
            d[i][j] = min(d[i - 1][j] + 1, d[i][j - 1] + 1,
                          d[i - 1][j - 1] + (ref[i - 1] != hyp[j - 1]))
    return d[-1][-1]


class ShortestPath(NamedTuple):
    weight: float
    ilabels: tuple[int, ...]
    olabels: tuple[int, ...]
    states: tuple[int, ...]


def shortest_path(fst: Fst) -> Optional[ShortestPath]:
    """Tropical single shortest accepting path, or None if none exists.

    Weights must be non-negative (the Weight domain guarantees it), so
    this is a backward Dijkstra for the distance-to-final function
    followed by a deterministic greedy walk.  Ties are broken toward the
    lexicographically smallest state-id sequence: stopping at a final
    state beats continuing, then the smallest next state wins, then the
    smallest (ilabel, olabel).  Epsilon labels are omitted from the
    returned label sequences.
    """
    dist: list[float] = [ZERO] * fst.num_states
    reverse: dict[int, list[tuple[int, float]]] = {}
    for state in fst.states():
        for arc in fst.arcs_of(state):
            reverse.setdefault(arc.nextstate, []).append((state, arc.weight))
    heap: list[tuple[float, int]] = []
    for state, rho in fst.finals.items():
        if rho < dist[state]:
            dist[state] = rho
            heapq.heappush(heap, (rho, state))
    while heap:
        d, state = heapq.heappop(heap)
        if d > dist[state]:
            continue
        for src, w in reverse.get(state, ()):
            nd = w + d
            if nd < dist[src]:
                dist[src] = nd
                heapq.heappush(heap, (nd, src))

    if dist[fst.start] == ZERO:
        return None

    ilabels: list[int] = []
    olabels: list[int] = []
    states = [fst.start]
    on_path = {fst.start}
    state = fst.start
    while True:
        remaining = dist[state]
        if fst.finals.get(state, ZERO) == remaining:
            return ShortestPath(dist[fst.start], tuple(ilabels), tuple(olabels),
                                tuple(states))
        best: Optional[Arc] = None
        for arc in fst.arcs_of(state):
            if arc.weight + dist[arc.nextstate] != remaining:
                continue
            if arc.nextstate in on_path and dist[arc.nextstate] == remaining:
                continue  # zero-weight cycle; an equally good acyclic choice exists
            if best is None or (arc.nextstate, arc.ilabel, arc.olabel) < \
                    (best.nextstate, best.ilabel, best.olabel):
                best = arc
        if best is None:
            # Only possible when every optimal continuation closes a
            # zero-weight cycle, which valid inputs here never produce.
            raise AssertionError("shortest-path walk trapped in zero-weight cycles")
        if best.ilabel != EPS:
            ilabels.append(best.ilabel)
        if best.olabel != EPS:
            olabels.append(best.olabel)
        state = best.nextstate
        states.append(state)
        on_path.add(state)


def read_symbols(text: str) -> SymbolTable:
    """Parse what fst.write_symbols emits: "symbol<TAB>id" lines, ids
    dense from 0 and 0 = <eps>."""
    table = SymbolTable()
    for expected, line in enumerate(text.splitlines()):
        sym, sym_id = line.split("\t")
        assert int(sym_id) == expected, line
        if expected == 0:
            assert sym == "<eps>", line
        else:
            assert table.add(sym) == expected, line
    return table


def read_text_fst(text: str, isyms: Optional[SymbolTable] = None,
                  osyms: Optional[SymbolTable] = None) -> Fst:
    """Parse what fst.write_text_fst emits: arc lines "src dst isym osym
    weight", final lines "state weight", the start state's block first.
    Labels resolve through the symbol tables when given, else they are
    integer ids."""
    def label(tok: str, table: Optional[SymbolTable]) -> int:
        got = int(tok) if table is None else table.id_of(tok)
        assert got is not None, f"unknown symbol {tok!r}"
        return got

    builder = FstBuilder(isyms, osyms)
    start = None
    for line in text.splitlines():
        parts = line.split()
        state = int(parts[0])
        if start is None:
            start = state
        if len(parts) == 2:
            builder.set_final(state, float(parts[1]))
        else:
            dst, il, ol, weight = parts[1:]
            builder.add_arc(state, label(il, isyms), label(ol, osyms),
                            float(weight), int(dst))
    assert start is not None, "no states"
    return builder.freeze(start=start)
