package selector

import (
	"errors"
	"math"
	"strings"

	"gridmon/internal/message"
	"gridmon/internal/predindex"
)

// Tri is SQL three-valued logic. A selector accepts a message only when
// the whole expression evaluates to TriTrue.
type Tri int8

// Three-valued logic constants.
const (
	TriFalse Tri = iota
	TriTrue
	TriUnknown
)

func (t Tri) String() string {
	switch t {
	case TriFalse:
		return "false"
	case TriTrue:
		return "true"
	}
	return "unknown"
}

func triNot(t Tri) Tri {
	switch t {
	case TriTrue:
		return TriFalse
	case TriFalse:
		return TriTrue
	}
	return TriUnknown
}

func triAnd(a, b Tri) Tri {
	if a == TriFalse || b == TriFalse {
		return TriFalse
	}
	if a == TriTrue && b == TriTrue {
		return TriTrue
	}
	return TriUnknown
}

func triOr(a, b Tri) Tri {
	if a == TriTrue || b == TriTrue {
		return TriTrue
	}
	if a == TriFalse && b == TriFalse {
		return TriFalse
	}
	return TriUnknown
}

// vkind is the runtime value domain of the evaluator.
type vkind uint

const (
	vNull vkind = iota
	vBool
	vLong
	vDouble
	vString
	// vOpaque is a present value the language cannot select (a JMS
	// Bytes property): IS NULL is FALSE, every other use is UNKNOWN.
	vOpaque
)

// Value is one field value in the engine's domain: NULL, a boolean, a
// 64-bit integer, a double or a string. A Fields source returns its
// fields as Values.
//
// A Value is three words, so the compiler keeps one in registers where
// it can instead of copying it through memory.
type Value struct {
	kind vkind
	i    int64 // an integer, a boolean as 0 or 1, or a double's IEEE bits
	s    string
}

// NullValue, LongValue, DoubleValue and StringValue construct Values.
func NullValue() Value            { return Value{} }
func LongValue(i int64) Value     { return Value{kind: vLong, i: i} }
func DoubleValue(f float64) Value { return Value{kind: vDouble, i: int64(math.Float64bits(f))} }
func StringValue(s string) Value  { return Value{kind: vString, s: s} }

func boolValue(b bool) Value {
	if b {
		return Value{kind: vBool, i: 1}
	}
	return Value{kind: vBool}
}

func (v Value) isNumeric() bool { return v.kind == vLong || v.kind == vDouble }

func (v Value) f() float64 { return math.Float64frombits(uint64(v.i)) }

func (v Value) asDouble() float64 {
	if v.kind == vLong {
		return float64(v.i)
	}
	return v.f()
}

// fromMessage maps a typed JMS property value into the evaluator domain.
// It reads the raw payload (sign-extended integer bits, IEEE float bits)
// directly rather than going through the checked As* conversions.
func fromMessage(mv message.Value) Value {
	kind, num, str := mv.Raw()
	switch kind {
	case message.KindNull:
		return NullValue()
	case message.KindBool:
		return boolValue(num != 0)
	case message.KindByte, message.KindShort, message.KindInt, message.KindLong:
		return LongValue(int64(num))
	case message.KindFloat:
		return DoubleValue(float64(math.Float32frombits(uint32(num))))
	case message.KindDouble:
		return DoubleValue(math.Float64frombits(num))
	case message.KindString:
		return StringValue(str)
	}
	// Bytes values are present but not selectable in JMS.
	return Value{kind: vOpaque}
}

// Source supplies identifier values during evaluation. *message.Message
// implements it.
type Source interface {
	SelectorField(name string) (message.Value, bool)
}

type expr interface {
	// evalBool evaluates the node as a boolean condition.
	evalBool(src Source) Tri
	// evalVal evaluates the node as a value (for arithmetic operands).
	evalVal(src Source) Value
}

// --- leaves ---

type litExpr struct{ v Value }

func (e *litExpr) evalVal(Source) Value { return e.v }
func (e *litExpr) evalBool(Source) Tri  { return triOf(e.v) }

type identExpr struct{ name string }

func (e *identExpr) evalVal(src Source) Value {
	mv, ok := src.SelectorField(e.name)
	if !ok {
		return NullValue()
	}
	return fromMessage(mv)
}
func (e *identExpr) evalBool(src Source) Tri { return triOf(e.evalVal(src)) }

// --- boolean combinators ---

type notExpr struct{ inner expr }

func (e *notExpr) evalBool(src Source) Tri  { return triNot(e.inner.evalBool(src)) }
func (e *notExpr) evalVal(src Source) Value { return triToVal(e.evalBool(src)) }

type andExpr struct{ l, r expr }

func (e *andExpr) evalBool(src Source) Tri {
	lv := e.l.evalBool(src)
	if lv == TriFalse {
		return TriFalse // short circuit
	}
	return triAnd(lv, e.r.evalBool(src))
}
func (e *andExpr) evalVal(src Source) Value { return triToVal(e.evalBool(src)) }

type orExpr struct{ l, r expr }

func (e *orExpr) evalBool(src Source) Tri {
	lv := e.l.evalBool(src)
	if lv == TriTrue {
		return TriTrue // short circuit
	}
	return triOr(lv, e.r.evalBool(src))
}
func (e *orExpr) evalVal(src Source) Value { return triToVal(e.evalBool(src)) }

func triToVal(t Tri) Value {
	if t == TriUnknown {
		return NullValue()
	}
	return boolValue(t == TriTrue)
}

// --- comparisons ---

type cmpExpr struct {
	op   string
	l, r expr
	// ordStr orders strings (SQL); JMS compares strings only with = and <>.
	ordStr bool
}

func (e *cmpExpr) evalBool(src Source) Tri {
	lv, rv := e.l.evalVal(src), e.r.evalVal(src)
	if lv.kind == vNull || rv.kind == vNull {
		return TriUnknown
	}
	// Numeric comparison with promotion.
	if lv.isNumeric() && rv.isNumeric() {
		if lv.kind == vLong && rv.kind == vLong {
			return cmpOrdered(e.op, compareInt(lv.i, rv.i), true)
		}
		c, ordered := compareFloat(lv.asDouble(), rv.asDouble())
		return cmpOrdered(e.op, c, ordered)
	}
	// JMS compares strings and booleans only for equality (§3.8.1.2);
	// SQL orders strings too.
	if lv.kind == vString && rv.kind == vString {
		switch e.op {
		case "=":
			return boolTri(lv.s == rv.s)
		case "<>":
			return boolTri(lv.s != rv.s)
		}
		if e.ordStr {
			return cmpOrdered(e.op, strings.Compare(lv.s, rv.s), true)
		}
		return TriUnknown
	}
	if lv.kind == vBool && rv.kind == vBool {
		switch e.op {
		case "=":
			return boolTri(lv.i == rv.i)
		case "<>":
			return boolTri(lv.i != rv.i)
		}
		return TriUnknown
	}
	// Incompatible types.
	return TriUnknown
}
func (e *cmpExpr) evalVal(src Source) Value { return triToVal(e.evalBool(src)) }

func boolTri(b bool) Tri {
	if b {
		return TriTrue
	}
	return TriFalse
}

func compareInt(a, b int64) int {
	switch {
	case a < b:
		return -1
	case a > b:
		return 1
	}
	return 0
}

// compareFloat orders two doubles. ordered=false means a NaN operand:
// IEEE-754 defines no ordering (and no equality) for NaN, and the
// matching index agrees — a NaN value hits no Eq bucket and no
// interval — so the evaluators must not invent one.
func compareFloat(a, b float64) (c int, ordered bool) {
	switch {
	case a < b:
		return -1, true
	case a > b:
		return 1, true
	case a == b:
		return 0, true
	}
	return 0, false
}

func cmpOrdered(op string, c int, ordered bool) Tri {
	switch op {
	case "=":
		return boolTri(ordered && c == 0)
	case "<>":
		// IEEE/Java: NaN is unequal to everything, including itself.
		return boolTri(!ordered || c != 0)
	case "<":
		return boolTri(ordered && c < 0)
	case "<=":
		return boolTri(ordered && c <= 0)
	case ">":
		return boolTri(ordered && c > 0)
	case ">=":
		return boolTri(ordered && c >= 0)
	}
	return TriUnknown
}

// --- arithmetic ---

type arithExpr struct {
	op   byte // + - * /
	l, r expr
}

func (e *arithExpr) evalVal(src Source) Value {
	lv, rv := e.l.evalVal(src), e.r.evalVal(src)
	if !lv.isNumeric() || !rv.isNumeric() {
		return NullValue()
	}
	if lv.kind == vLong && rv.kind == vLong {
		switch e.op {
		case '+':
			return LongValue(lv.i + rv.i)
		case '-':
			return LongValue(lv.i - rv.i)
		case '*':
			return LongValue(lv.i * rv.i)
		case '/':
			if rv.i == 0 {
				return NullValue()
			}
			return LongValue(lv.i / rv.i)
		}
	}
	a, b := lv.asDouble(), rv.asDouble()
	switch e.op {
	case '+':
		return DoubleValue(a + b)
	case '-':
		return DoubleValue(a - b)
	case '*':
		return DoubleValue(a * b)
	case '/':
		return DoubleValue(a / b) // IEEE semantics, as in Java
	}
	return NullValue()
}
func (e *arithExpr) evalBool(src Source) Tri { return TriFalse }

type negExpr struct{ inner expr }

func (e *negExpr) evalVal(src Source) Value {
	v := e.inner.evalVal(src)
	switch v.kind {
	case vLong:
		return LongValue(-v.i)
	case vDouble:
		return DoubleValue(-v.f())
	}
	return NullValue()
}
func (e *negExpr) evalBool(Source) Tri { return TriFalse }

// --- BETWEEN / IN / LIKE / IS NULL ---

type betweenExpr struct {
	not       bool
	e, lo, hi expr
}

func (e *betweenExpr) evalBool(src Source) Tri {
	v, lo, hi := e.e.evalVal(src), e.lo.evalVal(src), e.hi.evalVal(src)
	if v.kind == vNull || lo.kind == vNull || hi.kind == vNull {
		return TriUnknown
	}
	if !v.isNumeric() || !lo.isNumeric() || !hi.isNumeric() {
		return TriUnknown
	}
	cLo, loOrd := compareFloat(v.asDouble(), lo.asDouble())
	cHi, hiOrd := compareFloat(v.asDouble(), hi.asDouble())
	in := loOrd && hiOrd && cLo >= 0 && cHi <= 0 // a NaN operand is outside every interval
	if v.kind == vLong && lo.kind == vLong && hi.kind == vLong {
		in = v.i >= lo.i && v.i <= hi.i
	}
	if e.not {
		return boolTri(!in)
	}
	return boolTri(in)
}
func (e *betweenExpr) evalVal(src Source) Value { return triToVal(e.evalBool(src)) }

type inExpr struct {
	not   bool
	ident string
	set   []string
}

func (e *inExpr) evalBool(src Source) Tri {
	mv, ok := src.SelectorField(e.ident)
	if !ok || mv.IsNull() {
		return TriUnknown
	}
	if mv.Kind() != message.KindString {
		return TriUnknown
	}
	s := mv.AsString()
	found := false
	for _, x := range e.set {
		if x == s {
			found = true
			break
		}
	}
	if e.not {
		return boolTri(!found)
	}
	return boolTri(found)
}
func (e *inExpr) evalVal(src Source) Value { return triToVal(e.evalBool(src)) }

type likeExpr struct {
	not     bool
	ident   string
	pattern string
	matcher *likeMatcher
}

func (e *likeExpr) evalBool(src Source) Tri {
	mv, ok := src.SelectorField(e.ident)
	if !ok || mv.IsNull() {
		return TriUnknown
	}
	if mv.Kind() != message.KindString {
		return TriUnknown
	}
	m := e.matcher.match(mv.AsString())
	if e.not {
		return boolTri(!m)
	}
	return boolTri(m)
}
func (e *likeExpr) evalVal(src Source) Value { return triToVal(e.evalBool(src)) }

type isNullExpr struct {
	not   bool
	ident string
}

func (e *isNullExpr) evalBool(src Source) Tri {
	mv, ok := src.SelectorField(e.ident)
	isNull := !ok || mv.IsNull()
	if e.not {
		return boolTri(!isNull)
	}
	return boolTri(isNull)
}
func (e *isNullExpr) evalVal(src Source) Value { return triToVal(e.evalBool(src)) }

// --- LIKE pattern compilation ---

// likeMatcher matches SQL LIKE patterns: '%' is any run (including empty),
// '_' any single character, and an optional escape character quotes the
// next pattern character literally.
type likeMatcher struct {
	ops []likeOp
}

type likeOp struct {
	kind byte // 'l' literal, '_' single, '%' any-run
	lit  byte
}

func compileLike(pattern string, escape byte) (*likeMatcher, error) {
	m := &likeMatcher{}
	for i := 0; i < len(pattern); i++ {
		c := pattern[i]
		switch {
		case escape != 0 && c == escape:
			i++
			if i >= len(pattern) {
				return nil, errors.New("LIKE pattern ends with escape character")
			}
			m.ops = append(m.ops, likeOp{kind: 'l', lit: pattern[i]})
		case c == '%':
			// Collapse consecutive wildcards.
			if n := len(m.ops); n == 0 || m.ops[n-1].kind != '%' {
				m.ops = append(m.ops, likeOp{kind: '%'})
			}
		case c == '_':
			m.ops = append(m.ops, likeOp{kind: '_'})
		default:
			m.ops = append(m.ops, likeOp{kind: 'l', lit: c})
		}
	}
	return m, nil
}

// match runs the classic two-pointer wildcard algorithm (linear in
// len(s) * number of '%' segments, no recursion).
func (m *likeMatcher) match(s string) bool {
	ops := m.ops
	si, oi := 0, 0
	star, starSi := -1, 0
	for si < len(s) {
		if oi < len(ops) {
			op := ops[oi]
			switch op.kind {
			case 'l':
				if s[si] == op.lit {
					si++
					oi++
					continue
				}
			case '_':
				si++
				oi++
				continue
			case '%':
				star = oi
				starSi = si
				oi++
				continue
			}
		}
		if star >= 0 {
			oi = star + 1
			starSi++
			si = starSi
			continue
		}
		return false
	}
	for oi < len(ops) && ops[oi].kind == '%' {
		oi++
	}
	return oi == len(ops)
}

// --- public API ---

// Selector is a parsed predicate in one dialect. Parse builds the AST
// and, for a JMS selector, immediately flattens it into a message Program
// (see compile.go) that Matches and Eval run; CompileFields compiles it
// against another field layout, and EvalInterpreted retains the
// tree-walking evaluator as the reference both compiled forms are checked
// against.
type Selector struct {
	src     string
	root    expr
	dialect Dialect
	prog    *Program
	key     predindex.Key // required-conjunct key for the matching index
}

// Dialect selects the language rules a predicate is parsed under. The two
// share one grammar and one three-valued semantics.
type Dialect uint8

const (
	// JMS is the JMS 1.1 message-selector language (§3.8.1): strings
	// compare only with = and <>, and a name starting with JMS must be
	// one of the selectable headers.
	JMS Dialect = iota
	// SQL is the WHERE clause R-GMA accepts: a tree of `name op
	// [±]literal` and `name IS [NOT] NULL` under AND, OR, NOT and
	// parentheses. Strings are ordered, names are case-insensitive (the
	// parser folds them to lower case), and an empty predicate is an
	// error.
	SQL
)

// Parse parses a JMS selector expression. An empty (or all-whitespace)
// selector returns a Selector that matches every message, mirroring a JMS
// consumer created without a selector.
func Parse(src string) (*Selector, error) { return ParseDialect(src, JMS) }

// ParseDialect parses a predicate under dialect d.
func ParseDialect(src string, d Dialect) (*Selector, error) {
	p := NewScanner(src, d)
	s, err := p.Predicate()
	if err != nil {
		return nil, err
	}
	return s, nil
}

// Predicate parses the rest of the input, after the current token (all
// of it on a new Scanner), as a predicate in the scanner's dialect; that
// rest is the selector's text.
func (p *Scanner) Predicate() (*Selector, *Error) {
	base := p.lex.pos
	src := p.lex.src[base:]
	if err := p.Next(); err != nil {
		return nil, err
	}
	if p.Tok.Kind == TokEOF {
		if p.sql {
			return nil, p.Errorf("empty predicate")
		}
		return &Selector{src: src}, nil
	}
	root, err := p.parseOr()
	if err != nil {
		return nil, err
	}
	if p.Tok.Kind != TokEOF {
		return nil, p.Errorf("unexpected trailing token %q", p.Tok.Text)
	}
	if p.sql && !sqlShape(root) {
		return nil, &Error{Pos: base, Msg: "a WHERE clause allows only `column op [±]literal`, `column IS [NOT] NULL`, AND, OR, NOT and parentheses", Expr: p.lex.src}
	}
	s := &Selector{src: src, root: root, dialect: SQL, key: extractKey(root)}
	if !p.sql {
		s.dialect, s.prog = JMS, compileProgram(root, false, nil)
	}
	return s, nil
}

// sqlShape reports whether a tree stays inside the SQL dialect's shape.
func sqlShape(e expr) bool {
	switch v := e.(type) {
	case *andExpr:
		return sqlShape(v.l) && sqlShape(v.r)
	case *orExpr:
		return sqlShape(v.l) && sqlShape(v.r)
	case *notExpr:
		return sqlShape(v.inner)
	case *isNullExpr:
		return true
	case *cmpExpr:
		if _, ok := v.l.(*identExpr); !ok {
			return false
		}
		r := v.r
		if n, ok := r.(*negExpr); ok {
			lit, ok := n.inner.(*litExpr)
			return ok && lit.v.isNumeric()
		}
		lit, ok := r.(*litExpr)
		return ok && lit.v.kind != vBool
	}
	return false
}

// MustParse is Parse that panics on error, for tests and constants.
func MustParse(src string) *Selector {
	s, err := Parse(src)
	if err != nil {
		panic(err)
	}
	return s
}

// Matches reports whether the selector accepts the message (evaluates to
// TRUE; FALSE and UNKNOWN both reject, per JMS).
func (s *Selector) Matches(src Source) bool {
	return s.Eval(src) == TriTrue
}

// Eval returns the three-valued result of the selector on the message,
// using the compiled program.
func (s *Selector) Eval(src Source) Tri {
	if s == nil || s.root == nil {
		return TriTrue
	}
	if s.prog != nil {
		return s.prog.Eval(src)
	}
	return s.root.evalBool(src)
}

// EvalInterpreted returns the three-valued result using the tree-walking
// evaluator. It exists so tests can prove the compiled program and the
// interpreter agree on every input.
func (s *Selector) EvalInterpreted(src Source) Tri {
	if s == nil || s.root == nil {
		return TriTrue
	}
	return s.root.evalBool(src)
}

// Compiled returns the selector's compiled message program: nil for the
// match-everything empty selector, and for the SQL dialect, which
// compiles against rows (CompileFields) and evaluates messages only
// through the interpreter.
func (s *Selector) Compiled() *Program {
	if s == nil {
		return nil
	}
	return s.prog
}

// CompileFields compiles the selector against a field layout, for
// EvalFields. cols resolves each name here, never during evaluation. A
// name the layout lacks reads as NULL, so the comparisons and IS NULL
// tests on it fold to constants. The nil selector compiles to the nil
// program, TRUE for every source.
func (s *Selector) CompileFields(cols Columns) *Program {
	if s == nil || s.root == nil {
		return nil
	}
	return compileProgram(s.root, s.dialect == SQL, cols)
}

// AlwaysTrue reports whether the selector accepts every message: the empty
// selector, or one whose expression folds to a constant TRUE. The broker
// places such subscriptions on a fast path that skips evaluation.
func (s *Selector) AlwaysTrue() bool {
	if s == nil || s.root == nil {
		return true
	}
	t, ok := fold(s.root, nil)
	return ok && t == TriTrue
}

// String returns the original selector text.
func (s *Selector) String() string {
	if s == nil {
		return ""
	}
	return s.src
}
