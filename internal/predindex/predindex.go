// Package predindex implements the content-based matching index shared
// by the broker's topic routing and the R-GMA core's insert fan-out.
//
// Both hot paths dispatch one message (or tuple) against many distinct
// compiled predicates; scanning every predicate makes the per-message
// cost O(#predicates) even when one matches. The index turns that into
// O(#matching + #residual): each predicate is summarized by a *required
// key* — a conjunct the whole predicate cannot be TRUE without — and
// the message probes only the buckets its own attribute values select.
// Equality keys hash into per-attribute value buckets, numeric range
// keys go into a per-attribute interval tree, and predicates without an
// extractable key fall to a residual list that is scanned linearly.
//
// The contract is *candidate superset, never exact match*: Candidates
// returns every predicate that could evaluate to TRUE (and possibly
// some that do not), in the same first-appearance order a linear scan
// would visit them, and the caller's compiled program still renders the
// verdict. Correctness therefore cannot depend on extraction precision:
// an imprecise key only costs candidates, a wrong key would lose them —
// which is why extraction (internal/selector, internal/sqlmini) only
// widens (inclusive float64 bounds, residual on anything subtle).
//
// # Patching
//
// Every predicate is addressed by a caller-chosen seq, and Candidates
// emits seqs in ascending order. Build indexes a dense list (seq i is
// keys[i]); With and Without patch an index one predicate at a time, so
// a caller whose predicates come and go keeps each one's seq for as long
// as it lives and never renumbers the rest. A patched index is an
// LSM-style pair: a frozen base shared with every version patched from
// it, plus a small delta — the predicates added since the base was built
// (in a small index of the same shape) and the base seqs removed since
// (a sorted set Candidates filters out). Once the delta holds more than
// about √n entries it is folded into a fresh base, so a patch costs
// amortised O(√n) work and O(1) allocations and a probe pays one extra
// small-bucket lookup per attribute. Compact renumbers the survivors
// densely, keeping their order, for callers whose seq space has grown
// sparse.
//
// Shard-safety: an Index is immutable — With, Without and Compact
// return a new Index and leave the receiver untouched — so it may be
// read concurrently without synchronization. Both users patch it under
// their write-side lock (broker topic state, rgmacore table shard) and
// publish it through the same atomic.Pointer snapshot as the route it
// serves, so the lock-free read paths consult it with no additional
// ordering. The nil *Index is the empty index.
package predindex

import (
	"cmp"
	"math"
	"slices"
	"sort"
)

// ValueKind tags a canonical probe/bucket value.
type ValueKind uint8

// Value kinds. All numerics — int64, float32, float64 — canonicalize to
// KNum via float64: the evaluators compare mixed numeric types through
// float64 promotion, so two values that can compare equal always hash
// to the same bucket. (Exact long/long comparison agrees: equal int64s
// convert to equal float64s. Distinct int64s that collide as float64
// merely share a bucket; the compiled program rejects the extras.)
const (
	KNum ValueKind = iota + 1
	KStr
	KBool
)

// Value is a canonical attribute value, usable as a map key.
type Value struct {
	Kind ValueKind
	F    float64
	S    string
	B    bool
}

// Num, Str and Boolean construct canonical values.
func Num(f float64) Value  { return Value{Kind: KNum, F: f} }
func Str(s string) Value   { return Value{Kind: KStr, S: s} }
func Boolean(b bool) Value { return Value{Kind: KBool, B: b} }

// KeyKind tags a required key.
type KeyKind uint8

// Key kinds.
//
//   - Residual: no required conjunct could be extracted; the predicate
//     is always a candidate.
//   - Never: the predicate can be proven to never evaluate TRUE for any
//     input (e.g. `x = NULL` is always UNKNOWN); it is never a
//     candidate.
//   - Eq: the predicate requires attr to equal one of Vals.
//   - Range: the predicate requires attr to be numeric and inside the
//     inclusive interval [Lo, Hi] (±Inf for open sides).
const (
	Residual KeyKind = iota
	Never
	Eq
	Range
)

// Key is the required-conjunct summary of one predicate.
type Key struct {
	Kind KeyKind
	Attr string
	Vals []Value // Eq: the admissible values (≥1 after construction)
	Lo   float64 // Range: inclusive lower bound
	Hi   float64 // Range: inclusive upper bound
}

// ResidualKey returns the always-a-candidate key.
func ResidualKey() Key { return Key{Kind: Residual} }

// NeverKey returns the never-a-candidate key.
func NeverKey() Key { return Key{Kind: Never} }

// EqKey returns a key requiring attr to equal one of vals. With no
// values the predicate can never be TRUE, so the key degrades to Never.
func EqKey(attr string, vals ...Value) Key {
	if len(vals) == 0 {
		return NeverKey()
	}
	return Key{Kind: Eq, Attr: attr, Vals: vals}
}

// RangeKey returns a key requiring attr to be numeric in [lo, hi]
// inclusive. An empty interval degrades to Never.
func RangeKey(attr string, lo, hi float64) Key {
	if !(lo <= hi) { // also catches NaN bounds
		return NeverKey()
	}
	return Key{Kind: Range, Attr: attr, Lo: lo, Hi: hi}
}

// And combines the keys of two conjuncts: `p AND q` is TRUE only when
// both sides are TRUE, so either side's key is a valid required key for
// the conjunction and And picks the more selective one. It never
// narrows below what one side already guarantees, keeping the superset
// property.
func And(a, b Key) Key {
	if a.Kind == Never || b.Kind == Never {
		return NeverKey()
	}
	return pickSelective(a, b)
}

// pickSelective orders Eq (fewest values first) > Range > Residual.
func pickSelective(a, b Key) Key {
	score := func(k Key) int {
		switch k.Kind {
		case Eq:
			return 2
		case Range:
			return 1
		}
		return 0
	}
	sa, sb := score(a), score(b)
	if sa > sb {
		return a
	}
	if sb > sa {
		return b
	}
	if a.Kind == Eq && len(b.Vals) < len(a.Vals) {
		return b
	}
	return a
}

// Or combines the keys of two disjuncts: `p OR q` is TRUE when either
// side is, so a required key must admit both sides' admissible inputs.
// Same-attribute Eq keys union their value sets; same-attribute Range
// keys take the convex hull; anything else falls to Residual (unless
// one side is Never, whose inputs need no admitting).
func Or(a, b Key) Key {
	if a.Kind == Never {
		return b
	}
	if b.Kind == Never {
		return a
	}
	if a.Kind == Residual || b.Kind == Residual {
		return ResidualKey()
	}
	if a.Attr != b.Attr {
		return ResidualKey()
	}
	if a.Kind == Eq && b.Kind == Eq {
		vals := make([]Value, 0, len(a.Vals)+len(b.Vals))
		vals = append(vals, a.Vals...)
	outer:
		for _, v := range b.Vals {
			for _, u := range a.Vals {
				if u == v {
					continue outer
				}
			}
			vals = append(vals, v)
		}
		return Key{Kind: Eq, Attr: a.Attr, Vals: vals}
	}
	if a.Kind == Range && b.Kind == Range {
		return RangeKey(a.Attr, math.Min(a.Lo, b.Lo), math.Max(a.Hi, b.Hi))
	}
	// Eq-vs-Range on one attribute: a numeric hull would admit both, but
	// Eq values may be non-numeric (strings, bools), so stay safe.
	return ResidualKey()
}

// Source supplies attribute values while probing the index. ok=false
// means the attribute is absent or NULL — no Eq or Range conjunct over
// it can be TRUE, so those plans contribute no candidates.
type Source interface {
	ProbeAttr(attr string) (Value, bool)
}

// mergeAt is the delta size (added entries plus removed base seqs) at
// which a patched index folds its delta into a fresh base, given the
// number of live predicates. √live balances the two costs a delta
// adds: a patch rebuilds the delta, and a merge rebuilds everything.
// The floor keeps small indexes from merging on nearly every patch.
// Tests force it low to push every patch through a merge.
var mergeAt = func(live int) int { return max(8, int(math.Sqrt(float64(live)))) }

// entry is one indexed predicate.
type entry struct {
	seq int32
	key Key
}

func cmpEntrySeq(e entry, seq int32) int { return cmp.Compare(e.seq, seq) }

// iv is one range entry: predicate seq requires the attribute in
// [lo, hi].
type iv struct {
	lo, hi float64
	seq    int32
}

// span locates one Eq bucket inside level.seqs.
type span struct{ off, n int32 }

// attrPlan holds every key extracted for one attribute.
type attrPlan struct {
	attr string
	// nums, strs and bools map an Eq value, by kind, to its bucket in
	// level.buckets: the seqs requiring attr to equal it, ascending. A
	// seq appears at most once per bucket and, through the per-key value
	// dedup, at most once per probe. Keying by the bare float64, string
	// or bool keeps hashing — most of a probe and of a build — to the
	// one field that matters; equality is unchanged (NaN matches
	// nothing, ±0 match each other).
	nums  map[float64]int32
	strs  map[string]int32
	bools map[bool]int32
	ivs   []iv // sorted by lo; stabbed via maxHi
	// maxHi[i] is the maximum hi in the subtree rooted at i of the
	// implicit balanced tree over ivs (midpoint recursion), enabling
	// O(log n + k) stabbing queries.
	maxHi []float64
}

// level is one immutable build over a seq-sorted entry list: an index's
// frozen base, or its delta of recent additions.
type level struct {
	entries []entry // ascending seq: what the level was built over
	plans   []attrPlan
	// buckets lays every plan's Eq buckets out back to back in seqs, so
	// a build allocates per level, not per value.
	buckets  []span
	seqs     []int32
	residual []int32
}

// Index is a discrimination index over a set of seq-addressed
// predicates. Immutable; see the package comment for shard-safety.
type Index struct {
	base *level // never nil
	// delta indexes the entries added since base was built; nil when
	// none. Its plans start with base's attributes in base's order, so
	// Candidates probes each attribute once for both levels.
	delta *level
	// gone holds the base seqs removed since base was built, ascending;
	// Candidates drops them. No delta seq is in gone, so the filter may
	// run over both levels' emissions at once.
	gone []int32

	live, residual, never int
}

// emptyLevel is the base of an index patched up from nothing.
var emptyLevel = &level{}

// Build constructs an index over keys[i] for predicate seq i. The seqs
// emitted by Candidates index into the same slice order.
func Build(keys []Key) *Index {
	entries := make([]entry, len(keys))
	for i, k := range keys {
		entries[i] = entry{seq: int32(i), key: k}
	}
	return fromEntries(entries)
}

// fromEntries builds a delta-free index over seq-sorted entries.
func fromEntries(entries []entry) *Index {
	if len(entries) == 0 {
		return nil
	}
	ix := &Index{base: build(entries, nil), live: len(entries)}
	for _, e := range entries {
		ix.count(e.key, 1)
	}
	return ix
}

// build indexes seq-sorted entries. The level's plans begin with like's
// attributes, in like's order (empty plans where entries have none).
func build(entries []entry, like []attrPlan) *level {
	lv := &level{entries: entries}
	byAttr := make(map[string]int, len(like))
	if len(like) > 0 {
		lv.plans = make([]attrPlan, len(like))
		for i := range like {
			lv.plans[i].attr = like[i].attr
			byAttr[like[i].attr] = i
		}
	}
	plan := func(attr string) *attrPlan {
		i, ok := byAttr[attr]
		if !ok {
			i = len(lv.plans)
			byAttr[attr] = i
			lv.plans = append(lv.plans, attrPlan{attr: attr})
		}
		return &lv.plans[i]
	}
	// One pass sizes the Eq buckets (one map operation per value; value
	// hashing dominates a build) and records each seq's bucket, and
	// collects intervals and residuals.
	type placement struct{ bucket, seq int32 }
	var placed []placement
	for _, e := range entries {
		switch k := e.key; k.Kind {
		case Eq:
			pl := plan(k.Attr)
			if placed == nil { // sized for the common one value per key
				placed = make([]placement, 0, len(entries))
				lv.buckets = make([]span, 0, len(entries))
			}
			for j, v := range k.Vals {
				if slices.Contains(k.Vals[:j], v) { // a seq must appear at most once per probe
					continue
				}
				var b int32
				switch v.Kind {
				case KNum:
					b = bucket(lv, &pl.nums, v.F)
				case KStr:
					b = bucket(lv, &pl.strs, v.S)
				case KBool:
					b = bucket(lv, &pl.bools, v.B)
				default:
					continue // no probe carries a kindless value
				}
				lv.buckets[b].n++
				placed = append(placed, placement{b, e.seq})
			}
		case Range:
			pl := plan(k.Attr)
			pl.ivs = append(pl.ivs, iv{lo: k.Lo, hi: k.Hi, seq: e.seq})
		case Residual:
			lv.residual = append(lv.residual, e.seq)
		}
	}
	// Lay the buckets out back to back, then fill them in seq order.
	off := int32(0)
	for b, sp := range lv.buckets {
		lv.buckets[b] = span{off: off}
		off += sp.n
	}
	lv.seqs = make([]int32, off)
	for _, p := range placed {
		sp := &lv.buckets[p.bucket]
		lv.seqs[sp.off+sp.n] = p.seq
		sp.n++
	}
	for i := range lv.plans {
		pl := &lv.plans[i]
		if len(pl.ivs) == 0 {
			continue
		}
		sort.Slice(pl.ivs, func(a, b int) bool {
			if pl.ivs[a].lo != pl.ivs[b].lo {
				return pl.ivs[a].lo < pl.ivs[b].lo
			}
			return pl.ivs[a].seq < pl.ivs[b].seq
		})
		pl.maxHi = make([]float64, len(pl.ivs))
		buildMaxHi(pl.ivs, pl.maxHi, 0, len(pl.ivs))
	}
	return lv
}

// bucket returns the bucket of value k in *m, adding an empty one (and
// the map) on first use.
func bucket[K comparable](lv *level, m *map[K]int32, k K) int32 {
	if *m == nil {
		*m = map[K]int32{}
	}
	b, ok := (*m)[k]
	if !ok {
		b = int32(len(lv.buckets))
		(*m)[k] = b
		lv.buckets = append(lv.buckets, span{})
	}
	return b
}

// buildMaxHi fills the implicit-tree subtree maxima for ivs[l:r) and
// returns the subtree maximum.
func buildMaxHi(ivs []iv, maxHi []float64, l, r int) float64 {
	if l >= r {
		return math.Inf(-1)
	}
	mid := (l + r) / 2
	m := ivs[mid].hi
	if lm := buildMaxHi(ivs, maxHi, l, mid); lm > m {
		m = lm
	}
	if rm := buildMaxHi(ivs, maxHi, mid+1, r); rm > m {
		m = rm
	}
	maxHi[mid] = m
	return m
}

// count adjusts the per-kind counters for one key entering (d = 1) or
// leaving (d = -1) the index.
func (ix *Index) count(k Key, d int) {
	switch k.Kind {
	case Residual:
		ix.residual += d
	case Never:
		ix.never += d
	}
}

// Len reports the number of predicates the index holds.
func (ix *Index) Len() int {
	if ix == nil {
		return 0
	}
	return ix.live
}

// NumResidual reports how many predicates fell to the linear residual.
func (ix *Index) NumResidual() int {
	if ix == nil {
		return 0
	}
	return ix.residual
}

// NumNever reports how many predicates were proven never-TRUE.
func (ix *Index) NumNever() int {
	if ix == nil {
		return 0
	}
	return ix.never
}

// find locates seq in a level's entries.
func (lv *level) find(seq int32) (int, bool) {
	if lv == nil {
		return 0, false
	}
	return slices.BinarySearchFunc(lv.entries, seq, cmpEntrySeq)
}

// inBase reports whether seq is a live base predicate, and where it
// sits in base.entries and (when absent) in gone.
func (ix *Index) inBase(seq int32) (at, goneAt int, ok bool) {
	at, ok = ix.base.find(seq)
	if !ok {
		return 0, 0, false
	}
	goneAt, removed := slices.BinarySearch(ix.gone, seq)
	return at, goneAt, !removed
}

// With returns an index that also holds predicate seq with key k. seq
// must not be live in ix; it may be new or previously removed. A caller
// that appends seqs in increasing order keeps Candidates'
// first-appearance order without renumbering anything.
func (ix *Index) With(seq int32, k Key) *Index {
	next := Index{base: emptyLevel}
	if ix != nil {
		next = *ix
		_, inDelta := ix.delta.find(seq)
		if _, _, inBase := ix.inBase(seq); inDelta || inBase {
			panic("predindex: With of a seq the index already holds")
		}
		if _, removed := slices.BinarySearch(ix.gone, seq); removed {
			// Re-adding a removed base seq: fold the delta first, so the
			// seq is not both in gone and in the new delta.
			next = *fromEntries(ix.survivors())
		}
	}
	var de []entry
	if next.delta != nil {
		de = next.delta.entries
	}
	at, _ := next.delta.find(seq)
	next.delta = build(slices.Insert(slices.Clip(de), at, entry{seq: seq, key: k}), next.base.plans)
	next.live++
	next.count(k, 1)
	return next.settle()
}

// Without returns an index that no longer holds predicate seq, or nil
// when seq was the last one. seq must be live in ix.
func (ix *Index) Without(seq int32) *Index {
	if ix == nil {
		panic("predindex: Without on an empty index")
	}
	next := *ix
	var k Key
	if at, ok := ix.delta.find(seq); ok {
		k = ix.delta.entries[at].key
		next.delta = nil
		if len(ix.delta.entries) > 1 {
			next.delta = build(slices.Delete(slices.Clone(ix.delta.entries), at, at+1), ix.base.plans)
		}
	} else if at, goneAt, ok := ix.inBase(seq); ok {
		k = ix.base.entries[at].key
		next.gone = slices.Insert(slices.Clip(ix.gone), goneAt, seq)
	} else {
		panic("predindex: Without of a seq the index does not hold")
	}
	next.live--
	next.count(k, -1)
	if next.live == 0 {
		return nil
	}
	return next.settle()
}

// settle folds the delta into a fresh base once it has grown past
// mergeAt, and returns the resulting index.
func (ix *Index) settle() *Index {
	pending := len(ix.gone)
	if ix.delta != nil {
		pending += len(ix.delta.entries)
	}
	if pending < mergeAt(ix.live) {
		return ix
	}
	return fromEntries(ix.survivors())
}

// survivors returns the live entries in ascending seq order: base minus
// gone, merged with the delta.
func (ix *Index) survivors() []entry {
	base, delta := ix.base.entries, []entry(nil)
	if ix.delta != nil {
		delta = ix.delta.entries
	}
	out := make([]entry, 0, ix.live)
	gone := ix.gone
	for len(base) > 0 || len(delta) > 0 {
		if len(delta) == 0 || (len(base) > 0 && base[0].seq < delta[0].seq) {
			if len(gone) > 0 && gone[0] == base[0].seq {
				gone = gone[1:]
			} else {
				out = append(out, base[0])
			}
			base = base[1:]
		} else {
			out = append(out, delta[0])
			delta = delta[1:]
		}
	}
	return out
}

// Compact returns the index with its predicates renumbered 0..Len()-1
// in ascending order of their current seqs: the i-th surviving
// predicate becomes seq i. A caller holding a seq-addressed slot slice
// with holes renumbers its slots the same way and keeps its order.
func (ix *Index) Compact() *Index {
	if ix == nil {
		return nil
	}
	entries := ix.survivors()
	for i := range entries {
		entries[i].seq = int32(i)
	}
	return fromEntries(entries)
}

// Candidates appends to out the seqs of every predicate that could
// evaluate TRUE for the probe source, sorted ascending — the same
// first-appearance order a linear scan visits, which keeps delivery
// order (and therefore single-caller runs) bit-identical to the linear
// path. out is used as scratch; pass a recycled buffer to avoid
// allocation.
func (ix *Index) Candidates(src Source, out []int32) []int32 {
	if ix == nil {
		return out
	}
	from := len(out)
	levels := [2]*level{ix.base, ix.delta}
	plans := ix.base.plans
	if ix.delta != nil {
		plans = ix.delta.plans // begins with base's attributes, in base's order
	}
	for i := range plans {
		v, ok := src.ProbeAttr(plans[i].attr)
		if !ok {
			continue
		}
		for _, lv := range levels {
			if lv == nil || i >= len(lv.plans) {
				continue
			}
			pl := &lv.plans[i]
			var b int32
			var hit bool
			switch v.Kind {
			case KNum:
				b, hit = pl.nums[v.F]
			case KStr:
				b, hit = pl.strs[v.S]
			case KBool:
				b, hit = pl.bools[v.B]
			}
			if hit {
				sp := lv.buckets[b]
				out = append(out, lv.seqs[sp.off:sp.off+sp.n]...)
			}
			if len(pl.ivs) > 0 && v.Kind == KNum {
				out = stab(pl.ivs, pl.maxHi, v.F, 0, len(pl.ivs), out)
			}
		}
	}
	for _, lv := range levels {
		if lv != nil {
			out = append(out, lv.residual...)
		}
	}
	if len(ix.gone) > 0 {
		out = ix.dropGone(out, from)
	}
	// Each seq appears at most once (one bucket per plan, plans are
	// disjoint by attr, residual is disjoint from plans, a live seq is
	// in base or delta and a removed base seq is dropped), so a plain
	// sort restores first-appearance order. slices.Sort does not
	// allocate, unlike sort.Slice — this runs per publish.
	slices.Sort(out)
	return out
}

// dropGone removes removed base seqs from out[from:], in place.
func (ix *Index) dropGone(out []int32, from int) []int32 {
	kept := from
	for _, s := range out[from:] {
		if _, removed := slices.BinarySearch(ix.gone, s); !removed {
			out[kept] = s
			kept++
		}
	}
	return out[:kept]
}

// stab walks the implicit interval tree over ivs[l:r) appending every
// interval containing x. NaN x matches nothing (all comparisons false).
func stab(ivs []iv, maxHi []float64, x float64, l, r int, out []int32) []int32 {
	if l >= r || !(maxHi[(l+r)/2] >= x) {
		return out
	}
	mid := (l + r) / 2
	out = stab(ivs, maxHi, x, l, mid, out)
	if ivs[mid].lo <= x {
		if ivs[mid].hi >= x {
			out = append(out, ivs[mid].seq)
		}
		out = stab(ivs, maxHi, x, mid+1, r, out)
	}
	return out
}
