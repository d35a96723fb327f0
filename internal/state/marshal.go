package state

import (
	"cmp"
	"fmt"
	"slices"
	"strings"

	"repro/internal/expr"
	"repro/internal/parse"
)

// Snapshot serialization: a State is encoded as a DAG of tagged-union
// nodes mirroring the state hierarchy (format version 4). The encoder
// deduplicates by structural identity, which is key identity (shape.go):
// the first occurrence of a structure (in a deterministic preorder walk)
// is emitted in full and assigned the next ordinal; every later
// occurrence is a one-field back-reference {"r": ordinal}. States
// produced by the hash-consing cache share sub-structure heavily —
// quantifier branches, parallel alternatives — so the DAG form keeps
// snapshots proportional to the number of
// *distinct* sub-states, matching the in-memory representation instead
// of exploding it back into a tree. Because encoding is a pure preorder
// function of the structure, marshal → unmarshal → marshal is
// byte-identical (FuzzSnapshotRoundTrip). Sets, multisets and
// alternative lists are written in key order, which does not depend on
// how ids hash; the decoder builds every node through the constructors
// that store them in id order.
//
// A quantifier branch is written as the engine holds it: its value and
// its state over the body with the parameter still free (parametric, see
// state.go). The branches of many values in one phase are one state, so
// they cost one node and back-references. Versions 0 to 3 wrote each
// branch's state with the parameter substituted; such a state is just as
// valid a branch (binding leaves it as it is), so they decode through the
// same decoder. Version-0 snapshots (the pre-DAG tree format, no "v"
// field) contain no back-references; old checkpoints keep loading
// unchanged. A decoder older than version 4 refuses a version-4 snapshot
// with its version error rather than misread a free $p.
//
// Expressions referenced by states (iteration bodies, quantifier nodes,
// ...) are stored in their canonical text form and re-parsed on load —
// the round-trip property of the canonical syntax (including free
// parameters, rendered as $p) makes this exact. Derived data (alphabets,
// nullability flags, cached keys) is recomputed rather than stored, so a
// snapshot stays small and cannot disagree with the code that interprets
// it.
//
// Snapshots exist so the interaction manager can checkpoint its engine and
// truncate the action log: restart then costs O(actions since the last
// checkpoint) instead of O(full history).

// snapFormatVersion is written by MarshalState and by every piece of a
// delta chain. Versions 0, 2 and 3 still decode (see engineSnap).
const snapFormatVersion = 4

// Node type tags. One per State implementation.
const (
	tagEmpty   = "eps"
	tagAtom    = "atom"
	tagOr      = "or"
	tagAnd     = "and"
	tagSeq     = "seq"
	tagSeqIter = "iter"
	tagPar     = "par"
	tagMult    = "mult"
	tagParIter = "piter"
	tagSync    = "sync"
	tagAnyQ    = "any"
	tagConQ    = "conq"
	tagSyncQ   = "syncq"
	tagAllQ    = "all"
)

// snapNode is the JSON form of one state node. R, when non-zero, makes
// the node a back-reference to the R-th full node of the encoding's
// preorder walk (1-based); all other fields are then absent.
type snapNode struct {
	R    int           `json:"r,omitempty"`
	T    string        `json:"t,omitempty"`
	Act  *snapAction   `json:"act,omitempty"`  // atom: the (possibly abstract) action
	Done bool          `json:"done,omitempty"` // atom: traversed; iter: boundary flag
	E    string        `json:"e,omitempty"`    // owning expression, canonical text
	Es   []string      `json:"es,omitempty"`   // sync: operand expressions
	Kids []*snapNode   `json:"k,omitempty"`    // or/and/sync kids, iter instances
	Idx  []int         `json:"i,omitempty"`    // seq: operand index per kid
	Alts [][]*snapNode `json:"aa,omitempty"`   // par/mult/piter alternatives
	Br   []snapBranch  `json:"br,omitempty"`   // quantifier touched branches
	Gen  *snapNode     `json:"g,omitempty"`    // quantifier generic branch
	Excl []string      `json:"x,omitempty"`    // anyQ: generic's excluded bindings
	QA   []snapQAlt    `json:"qa,omitempty"`   // allQ alternatives
}

// snapAction preserves the value/parameter distinction of action
// arguments, which the concrete-action text syntax cannot express.
type snapAction struct {
	Name string    `json:"n"`
	Args []snapArg `json:"a,omitempty"`
}

type snapArg struct {
	Param bool   `json:"p,omitempty"`
	Name  string `json:"n"`
}

type snapBranch struct {
	Val string    `json:"v"`
	St  *snapNode `json:"s"`
}

type snapQAlt struct {
	Named []snapBranch `json:"n,omitempty"`
	Anon  []*snapNode  `json:"a,omitempty"`
	// Excl[i] holds the excluded binding values of Anon[i] (values the
	// anonymous branch consumed an action under "p differs from").
	Excl [][]string `json:"x,omitempty"`
}

func encodeAction(a expr.Action) *snapAction {
	sa := &snapAction{Name: a.Name}
	for _, arg := range a.Args {
		sa.Args = append(sa.Args, snapArg{Param: arg.Param, Name: arg.Name})
	}
	return sa
}

func decodeAction(sa *snapAction) expr.Action {
	args := make([]expr.Arg, len(sa.Args))
	for i, a := range sa.Args {
		if a.Param {
			args[i] = expr.Prm(a.Name)
		} else {
			args[i] = expr.Val(a.Name)
		}
	}
	return expr.Act(sa.Name, args...)
}

// encoder deduplicates states by structural identity while emitting the
// DAG: the first occurrence of a state (preorder) is emitted in full and
// given the next 1-based ordinal; later occurrences emit a
// back-reference.
type encoder struct {
	seen idTable[int]
	n    int
}

func newEncoder() *encoder { return &encoder{seen: make(idTable[int])} }

// inKeyOrder returns xs sorted by key, the order in which snapshots
// write sets and alternative lists; xs itself is not reordered.
func inKeyOrder[T any](xs []T, key func(T) string) []T {
	if len(xs) < 2 {
		return xs
	}
	keys, idx := make([]string, len(xs)), make([]int, len(xs))
	for i, x := range xs {
		idx[i], keys[i] = i, key(x)
	}
	slices.SortStableFunc(idx, func(i, j int) int { return strings.Compare(keys[i], keys[j]) })
	out := make([]T, len(xs))
	for i, j := range idx {
		out[i] = xs[j]
	}
	return out
}

func (enc *encoder) states(ss []State) []*snapNode {
	out := make([]*snapNode, len(ss))
	for i, s := range ss {
		out[i] = enc.state(s)
	}
	return out
}

// alts writes alternatives in key order, and a multiset's states in key
// order too.
func (enc *encoder) alts(alts [][]State, multiset bool) [][]*snapNode {
	alts = inKeyOrder(alts, func(alt []State) string { return altKey(alt, multiset) })
	out := make([][]*snapNode, len(alts))
	for i, alt := range alts {
		if multiset {
			alt = inKeyOrder(alt, State.Key)
		}
		out[i] = enc.states(alt)
	}
	return out
}

// branches writes the branches of a quantifier as the engine holds
// them: each value with its state over the body, the parameter free.
// Branches of different values in the same phase share that state, so
// all but the first are back-references.
func (enc *encoder) branches(bs branchSet) []snapBranch {
	out := make([]snapBranch, len(bs))
	for i, b := range bs {
		out[i] = snapBranch{Val: b.val, St: enc.state(b.st)}
	}
	return out
}

// state translates a live state into its snapshot node or back-reference.
func (enc *encoder) state(s State) *snapNode {
	if e, ok := enc.seen.get(s); ok {
		return &snapNode{R: e.v}
	}
	// Assign the ordinal before descending (preorder), mirroring the
	// decoder's slot reservation.
	enc.n++
	enc.seen.put(s, enc.n)
	switch st := s.(type) {
	case emptyState:
		return &snapNode{T: tagEmpty}
	case *atomState:
		return &snapNode{T: tagAtom, Act: encodeAction(st.atom), Done: st.done}
	case *orState:
		return &snapNode{T: tagOr, Kids: enc.states(inKeyOrder(st.kids, State.Key))}
	case *andState:
		return &snapNode{T: tagAnd, Kids: enc.states(st.kids)}
	case *seqState:
		n := &snapNode{T: tagSeq, E: st.e.String()}
		alts := inKeyOrder(st.alts, func(a seqAlt) string { return a.st.Key() })
		slices.SortStableFunc(alts, func(x, y seqAlt) int { return cmp.Compare(x.idx, y.idx) })
		for _, a := range alts {
			n.Idx = append(n.Idx, a.idx)
			n.Kids = append(n.Kids, enc.state(a.st))
		}
		return n
	case *seqIterState:
		return &snapNode{T: tagSeqIter, E: st.y.String(), Kids: enc.states(inKeyOrder(st.insts, State.Key)), Done: st.boundary}
	case *parState:
		return &snapNode{T: tagPar, Alts: enc.alts(st.alts, false)}
	case *multState:
		return &snapNode{T: tagMult, Alts: enc.alts(st.alts, true)}
	case *parIterState:
		return &snapNode{T: tagParIter, E: st.y.String(), Alts: enc.alts(st.alts, true)}
	case *syncState:
		n := &snapNode{T: tagSync, Kids: enc.states(st.kids)}
		for _, e := range st.kidExprs {
			n.Es = append(n.Es, e.String())
		}
		return n
	case *anyQState:
		n := &snapNode{T: tagAnyQ, E: st.e.String(), Br: enc.branches(st.touched), Excl: st.excluded}
		if st.generic != nil {
			n.Gen = enc.state(st.generic)
		}
		return n
	case *conQState:
		return &snapNode{T: tagConQ, E: st.e.String(), Br: enc.branches(st.touched), Gen: enc.state(st.generic)}
	case *syncQState:
		return &snapNode{T: tagSyncQ, E: st.e.String(), Br: enc.branches(st.touched), Gen: enc.state(st.generic)}
	case *allQState:
		n := &snapNode{T: tagAllQ, E: st.e.String()}
		for _, a := range inKeyOrder(st.alts, func(a allQAlt) string { return a.key(st.e.Param) }) {
			qa := snapQAlt{Named: enc.branches(a.named)}
			for _, ab := range inKeyOrder(a.anon, anonBranch.key) {
				qa.Anon = append(qa.Anon, enc.state(ab.st))
				qa.Excl = append(qa.Excl, ab.excl)
			}
			n.QA = append(n.QA, qa)
		}
		return n
	}
	panic(fmt.Sprintf("state: cannot snapshot %T", s))
}

// decoder caches parsed expressions (sub-states of one expression repeat
// its text, and pre-v4 snapshots repeat each quantifier body, substituted
// once per branch) and resolves DAG back-references: byOrd mirrors the
// encoder's preorder ordinals, so a {"r":N} node returns the N-th fully
// decoded state. Version-0 snapshots simply never reference the slots.
// Every node is made through the constructors the transitions use, which
// store sets in id order and seal the node's id.
type decoder struct {
	exprs map[string]*expr.Expr
	byOrd []State
}

func (d *decoder) expr(src string) (*expr.Expr, error) {
	if e, ok := d.exprs[src]; ok {
		return e, nil
	}
	e, err := parse.Parse(src)
	if err != nil {
		return nil, fmt.Errorf("state: snapshot expression %q: %w", src, err)
	}
	d.exprs[src] = e
	return e, nil
}

func (d *decoder) states(ns []*snapNode) ([]State, error) {
	out := make([]State, len(ns))
	for i, n := range ns {
		s, err := d.state(n)
		if err != nil {
			return nil, err
		}
		out[i] = s
	}
	return out, nil
}

// alts decodes alternatives, sorting a multiset's states, and returns
// them sorted and deduplicated.
func (d *decoder) alts(nss [][]*snapNode, multiset bool) ([][]State, error) {
	out := make([][]State, len(nss))
	for i, ns := range nss {
		ss, err := d.states(ns)
		if err != nil {
			return nil, err
		}
		if multiset {
			ss = sortStatesKeepDup(ss)
		}
		out[i] = ss
	}
	return sortDedupAlts(out, multiset), nil
}

func (d *decoder) branches(bs []snapBranch) (branchSet, error) {
	out := make(branchSet, len(bs))
	for i, b := range bs {
		st, err := d.state(b.St)
		if err != nil {
			return nil, err
		}
		out[i] = branch{val: b.Val, st: st}
	}
	return out, nil
}

// quantExpr parses and validates a quantifier node of the given op.
func (d *decoder) quantExpr(src string, want expr.Op) (*expr.Expr, error) {
	e, err := d.expr(src)
	if err != nil {
		return nil, err
	}
	if e.Op != want {
		return nil, fmt.Errorf("state: snapshot node: %q is not a %v node", src, want)
	}
	return e, nil
}

func (d *decoder) state(n *snapNode) (State, error) {
	if n == nil {
		return nil, fmt.Errorf("state: snapshot: missing node")
	}
	if n.R != 0 {
		if n.R < 1 || n.R > len(d.byOrd) || d.byOrd[n.R-1] == nil {
			return nil, fmt.Errorf("state: snapshot back-reference %d out of range", n.R)
		}
		return d.byOrd[n.R-1], nil
	}
	// Reserve this node's ordinal before descending, mirroring the
	// encoder's preorder numbering. A structure can never contain itself,
	// so the slot is always filled before anything can reference it.
	ord := len(d.byOrd)
	d.byOrd = append(d.byOrd, nil)
	st, err := d.stateBody(n)
	if err != nil {
		return nil, err
	}
	d.byOrd[ord] = st
	return st, nil
}

// stateBody decodes a full (non-reference) node.
func (d *decoder) stateBody(n *snapNode) (State, error) {
	switch n.T {
	case tagEmpty:
		return theEmptyState, nil
	case tagAtom:
		if n.Act == nil {
			return nil, fmt.Errorf("state: snapshot atom without action")
		}
		return newAtomState(decodeAction(n.Act), n.Done), nil
	case tagOr:
		kids, err := d.states(n.Kids)
		if err != nil {
			return nil, err
		}
		if len(kids) == 0 {
			return nil, fmt.Errorf("state: or snapshot without branches")
		}
		return newOrState(kids), nil
	case tagAnd:
		kids, err := d.states(n.Kids)
		if err != nil {
			return nil, err
		}
		return sealed(&andState{kids: kids}), nil
	case tagSeq:
		e, err := d.expr(n.E)
		if err != nil {
			return nil, err
		}
		if e.Op != expr.OpSeq || len(n.Idx) != len(n.Kids) {
			return nil, fmt.Errorf("state: malformed seq snapshot for %q", n.E)
		}
		s := &seqState{e: e}
		for i, kn := range n.Kids {
			if n.Idx[i] < 0 || n.Idx[i] >= len(e.Kids) {
				return nil, fmt.Errorf("state: seq snapshot index %d out of range for %q", n.Idx[i], n.E)
			}
			st, err := d.state(kn)
			if err != nil {
				return nil, err
			}
			s.alts = append(s.alts, seqAlt{idx: n.Idx[i], st: st})
		}
		s.alts = sortSeqAlts(s.alts)
		return sealed(s), nil
	case tagSeqIter:
		y, err := d.expr(n.E)
		if err != nil {
			return nil, err
		}
		insts, err := d.states(n.Kids)
		if err != nil {
			return nil, err
		}
		return sealed(&seqIterState{sigma: sigma{y: y}, insts: sortDedupStates(insts), boundary: n.Done}), nil
	case tagPar:
		alts, err := d.alts(n.Alts, false)
		if err != nil {
			return nil, err
		}
		return sealed(&parState{alts: alts}), nil
	case tagMult:
		alts, err := d.alts(n.Alts, true)
		if err != nil {
			return nil, err
		}
		return sealed(&multState{alts: alts}), nil
	case tagParIter:
		y, err := d.expr(n.E)
		if err != nil {
			return nil, err
		}
		alts, err := d.alts(n.Alts, true)
		if err != nil {
			return nil, err
		}
		return sealed(&parIterState{sigma: sigma{y: y}, alts: alts}), nil
	case tagSync:
		if len(n.Es) != len(n.Kids) {
			return nil, fmt.Errorf("state: malformed sync snapshot")
		}
		s := &syncState{}
		for i, src := range n.Es {
			e, err := d.expr(src)
			if err != nil {
				return nil, err
			}
			st, err := d.state(n.Kids[i])
			if err != nil {
				return nil, err
			}
			s.kidExprs = append(s.kidExprs, e)
			s.kids = append(s.kids, st)
			s.alphas = append(s.alphas, expr.AlphabetOf(e))
		}
		return sealed(s), nil
	case tagAnyQ:
		e, err := d.quantExpr(n.E, expr.OpAnyQ)
		if err != nil {
			return nil, err
		}
		touched, err := d.branches(n.Br)
		if err != nil {
			return nil, err
		}
		s := &anyQState{e: e, strictA: expr.AlphabetOf(e.Kids[0]), touched: touched.canonical(e.Param), excluded: n.Excl}
		if n.Gen != nil {
			if s.generic, err = d.state(n.Gen); err != nil {
				return nil, err
			}
		}
		return sealed(s), nil
	case tagConQ:
		e, err := d.quantExpr(n.E, expr.OpConQ)
		if err != nil {
			return nil, err
		}
		touched, err := d.branches(n.Br)
		if err != nil {
			return nil, err
		}
		generic, err := d.state(n.Gen)
		if err != nil {
			return nil, err
		}
		return sealed(&conQState{e: e, strictA: expr.AlphabetOf(e.Kids[0]), touched: touched.canonical(e.Param), generic: generic}), nil
	case tagSyncQ:
		e, err := d.quantExpr(n.E, expr.OpSyncQ)
		if err != nil {
			return nil, err
		}
		touched, err := d.branches(n.Br)
		if err != nil {
			return nil, err
		}
		generic, err := d.state(n.Gen)
		if err != nil {
			return nil, err
		}
		return sealed(&syncQState{
			e:       e,
			whole:   expr.AlphabetOf(e),
			touched: touched.canonical(e.Param),
			generic: generic,
			genA:    expr.AlphabetOf(e.Kids[0]),
		}), nil
	case tagAllQ:
		e, err := d.quantExpr(n.E, expr.OpAllQ)
		if err != nil {
			return nil, err
		}
		s := &allQState{e: e, sigma: sigma{y: e.Kids[0]}, strictA: expr.AlphabetOf(e.Kids[0])}
		s.nullable = s.initial().Final()
		for _, qa := range n.QA {
			named, err := d.branches(qa.Named)
			if err != nil {
				return nil, err
			}
			states, err := d.states(qa.Anon)
			if err != nil {
				return nil, err
			}
			anon := make([]anonBranch, len(states))
			for i, st := range states {
				anon[i] = anonBranch{st: st}
				if i < len(qa.Excl) {
					anon[i].excl = qa.Excl[i]
				}
			}
			s.alts = append(s.alts, allQAlt{named: named.canonical(e.Param), anon: sortAnon(anon)})
		}
		if len(s.alts) == 0 {
			s.alts = []allQAlt{{}}
		}
		s.alts = sortDedupQAlts(s.alts, e.Param)
		return sealed(s), nil
	}
	return nil, fmt.Errorf("state: unknown snapshot node type %q", n.T)
}

// engineSnap is the serialized form of an Engine. V is the state-node
// format version: 0/absent is the legacy tree encoding, 2 the shared DAG
// encoding with back-references, 3 the delta-chain encoding (same DAG
// node format, but back-references may reach nodes emitted by earlier
// pieces of the chain — see delta.go), 4 the delta-chain encoding with
// parametric quantifier branches. A standalone snapshot is a chain base.
// Idx and Ord appear in the later pieces of a chain: Idx is the piece's
// position in its chain (0 = full base) and Ord the number of node
// ordinals all earlier pieces assigned, which a loader checks before
// decoding so a mismatched or reordered chain fails loudly instead of
// resolving references wrongly.
type engineSnap struct {
	V     int       `json:"v,omitempty"`
	Idx   int       `json:"idx,omitempty"`
	Ord   int       `json:"ord,omitempty"`
	Expr  string    `json:"expr"`
	Steps int       `json:"steps"`
	State *snapNode `json:"state"`
}

// MarshalState serializes the engine's current state and step count in
// the DAG format: the base of a new delta chain. The snapshot embeds the
// canonical form of the expression so a restore against a different
// expression is rejected. Because states are immutable the snapshot
// shares structure with the live state — no deep copy happens; the
// encoder walks the (possibly hash-consed) DAG once per distinct
// sub-state.
func (en *Engine) MarshalState() ([]byte, error) {
	return NewDeltaMarshaller().MarshalBase(en)
}

// RestoreEngine rebuilds an engine for e from a standalone snapshot
// produced by MarshalState (or a chain-starting full base produced by a
// DeltaMarshaller). The restored engine is behaviourally identical to
// the one that was snapshotted: same state key, same permissible
// actions. Delta pieces need their whole chain; use DeltaRestorer.
func RestoreEngine(e *expr.Expr, data []byte) (*Engine, error) {
	dr, err := NewDeltaRestorer(e)
	if err != nil {
		return nil, err
	}
	if err := dr.Load(data); err != nil {
		return nil, err
	}
	return dr.Engine()
}
