package state

import (
	"cmp"
	"slices"
	"strconv"
	"strings"

	"repro/internal/expr"
)

// Structural ids. Every state node carries a 64-bit id, computed once
// when the node is made (sealed), in O(arity): the hash of its shape. A
// shape is the one description of a node's identity: its kind, then
// everything its key renders, in stored order — expressions (by their
// cached hashes), flags, values, child states (by their ids) and branches
// (by their states' binding-aware hashes, hashBound, confirmed by the
// states or, when two templates are equal under the binding, by keys).
// sameShape compares two shapes part by part, so an id and its
// confirmation cannot disagree. Sets, multisets and alternative lists
// are stored in id order, so two nodes have equal shapes exactly when
// their keys are equal, and the key, as long as the state's tree
// unfolding, is rendered only on demand. An id alone is never identity:
// a match is confirmed by the shapes, and only distinct nodes whose ids
// collide are ordered by key.

const fnvOffset, fnvPrime = 14695981039346656037, 1099511628211

// node holds a composite state's id.
type node struct{ id uint64 }

func (n *node) sid() uint64     { return n.id }
func (n *node) setID(id uint64) { n.id = id }

// sealed sets s's id from its shape and returns s; every state node is
// made through it, or copies the id of an equal node (internParts).
func sealed(s State) State {
	s.setID(hashOf(s))
	return s
}

var emptyID = hashOf(theEmptyState)

// sameIDs makes every id and every binding-aware hash 1, so tests can
// run every comparison through the confirmation and tie-break paths.
var sameIDs bool

// part is one element of a shape: a word, a string with its hash, a
// child state, or a branch: its state k, its value s and the hash w of
// its state under the binding of the parameter to s.
type part struct {
	w uint64
	s string
	k State
}

// same compares two parts; branches bind the parameter param.
func (p part) same(q part, param string) bool {
	if p.k == nil || q.k == nil {
		return p.k == q.k && p.w == q.w && p.s == q.s
	}
	return p.s == q.s && (sameState(p.k, q.k) || p.s != "" && p.w == q.w &&
		keyIn(p.k, &expr.Env{P: param, V: p.s}) == keyIn(q.k, &expr.Env{P: param, V: q.s}))
}

// desc receives a shape: it hashes the parts into h, or with rec set
// records them, or with chk set compares them with a recording.
type desc struct {
	h        uint64
	n        int // parts added
	rec, chk *recording
	i        int
	diff     bool
}

// recording holds a shape's parts, most shapes in buf.
type recording struct {
	buf   [16]part
	more  []part
	n     int
	param string // the parameter the recorded branches bind
}

func (r *recording) at(i int) part {
	if i < len(r.buf) {
		return r.buf[i]
	}
	return r.more[i-len(r.buf)]
}

func (d *desc) add(p part) {
	d.n++
	switch r := d.rec; {
	case r != nil && r.n < len(r.buf):
		r.buf[r.n], r.n = p, r.n+1
	case r != nil:
		r.more, r.n = append(r.more, p), r.n+1
	case d.chk != nil:
		d.diff = d.diff || d.i >= d.chk.n || !p.same(d.chk.at(d.i), d.chk.param)
		d.i++
	default:
		if p.k != nil && p.s == "" { // a child; a branch keeps its hash
			p.w = p.k.sid()
		}
		d.h = mix(d.h, p.w)
	}
}

func (d *desc) word(w uint64)     { d.add(part{w: w}) }
func (d *desc) str(s string)      { d.add(part{w: expr.HashKey(s), s: s}) }
func (d *desc) expr(e *expr.Expr) { d.add(part{w: e.Hash(), s: e.String()}) }
func (d *desc) kid(s State)       { d.add(part{k: s}) }

func (d *desc) flag(b bool) { d.str(strconv.FormatBool(b)) }

func (d *desc) kids(ss []State) {
	d.word(uint64(len(ss)))
	for _, s := range ss {
		d.kid(s)
	}
}

func (d *desc) branches(bs branchSet, p string) {
	d.word(uint64(len(bs)))
	if d.rec != nil {
		d.rec.param = p
	}
	for _, b := range bs {
		d.str(b.val)
		d.add(part{w: b.h, s: b.val, k: b.st})
	}
}

// shapeOf writes the shape of x — a state node, an alternative of a
// par, mult, piter or allQ state, or an anonymous branch — to d.
func shapeOf(x any, d *desc) {
	switch x := x.(type) {
	case emptyState:
		d.str(tagEmpty)
	case *atomState:
		d.str(tagAtom)
		d.flag(x.done)
		d.str(x.atom.Name)
		for _, arg := range x.atom.Args {
			d.flag(arg.Param)
			d.str(arg.Name)
		}
	case *orState:
		d.str(tagOr)
		d.kids(x.kids)
	case *andState:
		d.str(tagAnd)
		d.kids(x.kids)
	case *seqState:
		d.str(tagSeq)
		d.expr(x.e)
		for _, a := range x.alts {
			d.word(uint64(a.idx))
			d.kid(a.st)
		}
	case *seqIterState:
		d.str(tagSeqIter)
		d.expr(x.y)
		d.flag(x.boundary)
		d.kids(x.insts)
	case *parState:
		d.str(tagPar)
		each(x.alts, d)
	case *multState:
		d.str(tagMult)
		each(x.alts, d)
	case *parIterState:
		d.str(tagParIter)
		d.expr(x.y)
		each(x.alts, d)
	case *syncState:
		// Every operand's expression: the key names it in the tag or in
		// the operand's own key (writeTag).
		d.str(tagSync)
		for i, k := range x.kids {
			d.expr(x.kidExprs[i])
			d.kid(k)
		}
	case *anyQState:
		d.str(tagAnyQ)
		d.expr(x.e)
		d.branches(x.touched, x.e.Param)
		// The exclusions count only beside a live generic branch, as in
		// the key.
		if d.flag(x.generic != nil); x.generic != nil {
			d.kid(x.generic)
			d.str(strings.Join(x.excluded, ","))
		}
	case *conQState:
		d.str(tagConQ)
		d.expr(x.e)
		d.branches(x.touched, x.e.Param)
		d.kid(x.generic)
	case *syncQState:
		d.str(tagSyncQ)
		d.expr(x.e)
		d.branches(x.touched, x.e.Param)
		d.kid(x.generic)
	case *allQState:
		d.str(tagAllQ)
		d.expr(x.e)
		d.word(uint64(len(x.alts)))
		for _, a := range x.alts {
			qAlt{a, x.e.Param}.shape(d)
		}
	case []State:
		d.kids(x)
	case qAlt:
		x.shape(d)
	case anonBranch:
		d.kid(x.st)
		d.str(strings.Join(x.excl, ","))
	default:
		panic("state: shape of an unknown node")
	}
}

func (a qAlt) shape(d *desc) {
	d.branches(a.named, a.p)
	each(a.anon, d)
}

// each writes the shapes of xs to d, after their count.
func each[T any](xs []T, d *desc) {
	d.word(uint64(len(xs)))
	for _, x := range xs {
		shapeOf(x, d)
	}
}

// partsOf returns the number of parts of s's shape.
func partsOf(s State) int {
	var d desc
	shapeOf(s, &d)
	return d.n
}

// hashOf returns the hash of x's shape: a state node's id.
func hashOf[T any](x T) uint64 {
	d := desc{h: fnvOffset}
	if shapeOf(x, &d); sameIDs {
		return 1
	}
	return d.h
}

// sameShape reports that x and y have equal shapes.
func sameShape[T any](x, y T) bool {
	var r recording
	shapeOf(x, &desc{rec: &r})
	c := desc{chk: &r}
	shapeOf(y, &c)
	return !c.diff && c.i == r.n
}

// sameState reports that x and y are the same state: equal ids,
// confirmed by equal shapes.
func sameState(x, y State) bool {
	return x == y || x.sid() == y.sid() && sameShape(x, y)
}

// sortByID orders xs by id, and distinct elements whose ids collide by
// key; with dedup it drops duplicates. Each id is computed once.
func sortByID[T any](xs []T, id func(T) uint64, key func(T) string, same func(T, T) bool, dedup bool) []T {
	if len(xs) < 2 {
		return xs
	}
	type item struct {
		id uint64
		x  T
	}
	var buf [16]item
	items := buf[:0]
	if len(xs) > len(buf) {
		items = make([]item, 0, len(xs))
	}
	for _, x := range xs {
		items = append(items, item{id(x), x})
	}
	slices.SortFunc(items, func(a, b item) int { return cmp.Compare(a.id, b.id) })
	out := xs[:0]
	for i := 0; i < len(items); {
		j, one := i+1, true // one: the run of equal ids is copies of one element
		for ; j < len(items) && items[j].id == items[i].id; j++ {
			one = one && same(items[i].x, items[j].x)
		}
		run := items[i:j]
		if !one {
			slices.SortStableFunc(run, func(a, b item) int { return strings.Compare(key(a.x), key(b.x)) })
		}
		for k, it := range run {
			if !dedup || k == 0 || !one && !same(run[k-1].x, it.x) {
				out = append(out, it.x)
			}
		}
		i = j
	}
	return out
}

// sortDedupStates orders states by id and removes duplicates: a set.
func sortDedupStates(ss []State) []State {
	return sortByID(ss, State.sid, State.Key, sameState, true)
}

// sortStatesKeepDup orders states by id, keeping duplicates: a multiset
// (parallel iterations and multipliers track instance multiplicity).
func sortStatesKeepDup(ss []State) []State {
	return sortByID(ss, State.sid, State.Key, sameState, false)
}

// sortDedupAlts orders the alternatives of a par, mult or piter state by
// id and removes duplicates, compared slot by slot.
func sortDedupAlts(alts [][]State, multiset bool) [][]State {
	key := func(alt []State) string { return altKey(alt, multiset) }
	same := func(x, y []State) bool { return slices.EqualFunc(x, y, sameState) }
	return sortByID(alts, hashOf[[]State], key, same, true)
}

func mix(h, w uint64) uint64 { return (h ^ w) * fnvPrime }

// idTable finds states by structural identity: an id picks a bucket,
// and sameState confirms the match.
type idTable[V any] map[uint64][]idEntry[V]

type idEntry[V any] struct {
	st State
	v  V
}

// get returns the entry of the state equal to s.
func (t idTable[V]) get(s State) (idEntry[V], bool) {
	for _, e := range t[s.sid()] {
		if sameState(e.st, s) {
			return e, true
		}
	}
	return idEntry[V]{}, false
}

// put adds s, which get does not find, with the value v.
func (t idTable[V]) put(s State, v V) { t[s.sid()] = append(t[s.sid()], idEntry[V]{s, v}) }
