package selector

import (
	"math"

	"gridmon/internal/predindex"
)

var (
	negInf = math.Inf(-1)
	posInf = math.Inf(1)
)

// This file extracts the *required key* of a selector for the
// content-based matching index (internal/predindex): a conjunct the
// selector cannot evaluate TRUE without. Extraction is deliberately
// conservative — it may only widen (an over-wide key just costs extra
// candidates, which the compiled program rejects), never narrow (a
// too-narrow key would drop messages). The rules, mirroring the JMS
// evaluator in eval.go:
//
//   - `attr = literal` (either side order): Eq on the literal's
//     canonical value. All numerics canonicalize through float64
//     because mixed-type JMS comparison promotes through double, so
//     every pair of values the evaluator can call equal hashes to the
//     same bucket (see predindex.KNum).
//   - `attr < c`, `<=`, `>`, `>=` with a numeric constant: a Range
//     widened to the inclusive interval — strict bounds are kept
//     closed so float rounding can never exclude a true match.
//   - ordering on a non-numeric constant: JMS strings and booleans
//     support only equality, the comparison is always UNKNOWN → Never.
//     The SQL dialect orders strings, which the index does not model →
//     Residual.
//   - any comparison against a NULL constant: always UNKNOWN → Never.
//   - `=` or an ordering against a NaN constant (`0.0/0.0` folds to
//     one): IEEE says NaN compares false to everything, so the
//     predicate is always FALSE → Never (RangeKey degrades NaN bounds
//     itself). `<>` NaN stays Residual — it is TRUE for any numeric.
//   - `attr BETWEEN lo AND hi` with constant numeric bounds: Range.
//   - `attr IN (...)`: multi-valued string Eq.
//   - bare boolean identifier: Eq on TRUE.
//   - AND combines via predindex.And (either side's key is required),
//     OR via predindex.Or (must admit both sides).
//   - NOT, LIKE, IS [NOT] NULL, identifier-vs-identifier comparisons,
//     `<>`: Residual (scanned linearly).
//   - subtrees that fold to a constant (see fold): TRUE → Residual
//     (always a candidate — the broker's fast path catches these before
//     the index anyway), FALSE/UNKNOWN → Never.
//
// The SQL dialect folds names to lower case at parse time, so its keys
// name lower-case attributes: `Host = 'x'` and `host = 'y'` share one
// per-attribute plan, and a probe must resolve names case-insensitively.

// RequiredKey returns the selector's extracted key, computed once at
// Parse time. The zero selector (match-everything) is Residual.
func (s *Selector) RequiredKey() predindex.Key {
	if s == nil {
		return predindex.ResidualKey()
	}
	return s.key
}

// ProbeValue resolves one identifier of a source (a message, or a table
// row seen by name) into the canonical predindex value domain, for
// probing a matching index built over selector keys. ok=false means NULL,
// absent, or a Bytes value — none of which any Eq/Range conjunct can
// accept.
func ProbeValue(src Source, name string) (predindex.Value, bool) {
	mv, ok := src.SelectorField(name)
	if !ok {
		return predindex.Value{}, false
	}
	return fromMessage(mv).Probe()
}

// Probe returns v in the canonical predindex value domain; ok=false for
// NULL and unselectable values.
func (v Value) Probe() (predindex.Value, bool) {
	switch v.kind {
	case vBool:
		return predindex.Boolean(v.i != 0), true
	case vLong:
		return predindex.Num(float64(v.i)), true
	case vDouble:
		return predindex.Num(v.f()), true
	case vString:
		return predindex.Str(v.s), true
	}
	return predindex.Value{}, false
}

func extractKey(e expr) predindex.Key {
	if e == nil {
		return predindex.ResidualKey()
	}
	if t, ok := fold(e, nil); ok {
		if t == TriTrue {
			return predindex.ResidualKey()
		}
		return predindex.NeverKey() // constant FALSE or UNKNOWN
	}
	switch v := e.(type) {
	case *identExpr:
		// TRUE only when the field is boolean true.
		return predindex.EqKey(v.name, predindex.Boolean(true))
	case *andExpr:
		return predindex.And(extractKey(v.l), extractKey(v.r))
	case *orExpr:
		return predindex.Or(extractKey(v.l), extractKey(v.r))
	case *cmpExpr:
		return extractCmp(v)
	case *betweenExpr:
		return extractBetween(v)
	case *inExpr:
		if v.not || len(v.set) == 0 {
			return predindex.ResidualKey()
		}
		vals := make([]predindex.Value, len(v.set))
		for i, s := range v.set {
			vals[i] = predindex.Str(s)
		}
		return predindex.EqKey(v.ident, vals...)
	}
	// notExpr, likeExpr, isNullExpr: no required key.
	return predindex.ResidualKey()
}

func extractCmp(v *cmpExpr) predindex.Key {
	var attr string
	var c Value
	var fieldLeft bool
	li, lIdent := v.l.(*identExpr)
	ri, rIdent := v.r.(*identExpr)
	switch {
	case lIdent && isConst(v.r):
		attr, c, fieldLeft = li.name, v.r.evalVal(nil), true
	case isConst(v.l) && rIdent:
		attr, c = ri.name, v.l.evalVal(nil)
	default:
		return predindex.ResidualKey()
	}
	if c.kind == vNull {
		// Comparison with NULL is UNKNOWN for every input.
		return predindex.NeverKey()
	}
	switch v.op {
	case "=":
		switch c.kind {
		case vLong:
			return predindex.EqKey(attr, predindex.Num(float64(c.i)))
		case vDouble:
			if c.f() != c.f() {
				// `attr = NaN` is FALSE for every input (IEEE: NaN equals
				// nothing, cmpOrdered agrees) — and a NaN bucket could
				// never be probed anyway.
				return predindex.NeverKey()
			}
			return predindex.EqKey(attr, predindex.Num(c.f()))
		case vString:
			return predindex.EqKey(attr, predindex.Str(c.s))
		case vBool:
			return predindex.EqKey(attr, predindex.Boolean(c.i != 0))
		}
		return predindex.ResidualKey()
	case "<", "<=", ">", ">=":
		if c.kind == vString && v.ordStr {
			return predindex.ResidualKey()
		}
		if !c.isNumeric() {
			// Ordering exists only between numerics in JMS; with a
			// string/bool constant the comparison is always UNKNOWN.
			return predindex.NeverKey()
		}
		b := c.asDouble()
		// The constant bounds the field from above when the field is on
		// the small side of the operator.
		ltOp := v.op == "<" || v.op == "<="
		if fieldLeft == ltOp {
			return predindex.RangeKey(attr, negInf, b)
		}
		return predindex.RangeKey(attr, b, posInf)
	}
	// "<>" can be TRUE for almost any value.
	return predindex.ResidualKey()
}

func extractBetween(v *betweenExpr) predindex.Key {
	ei, ok := v.e.(*identExpr)
	if v.not || !ok || !isConst(v.lo) || !isConst(v.hi) {
		return predindex.ResidualKey()
	}
	lo, hi := v.lo.evalVal(nil), v.hi.evalVal(nil)
	if lo.kind == vNull || hi.kind == vNull {
		return predindex.NeverKey() // NULL bound: always UNKNOWN
	}
	if !lo.isNumeric() || !hi.isNumeric() {
		return predindex.NeverKey() // non-numeric bound: always UNKNOWN
	}
	return predindex.RangeKey(ei.name, lo.asDouble(), hi.asDouble())
}
