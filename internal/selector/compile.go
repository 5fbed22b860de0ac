package selector

import (
	"strings"

	"gridmon/internal/message"
)

// This file implements the selector compilation pass. Parse builds an AST
// (eval.go) and then flattens it into a Program: a compact instruction
// slice executed by a small stack machine over unboxed Values, with no
// per-node interface dispatch. The compiler performs two optimisations on
// the way down:
//
//   - constant folding: subtrees whose verdict no input can change
//     (literal-only subtrees, comparisons with NULL, names the field
//     layout lacks, AND with a FALSE side, OR with a TRUE side) are
//     evaluated once at compile time and emitted as a single constant
//     push;
//   - name pre-resolution: every name is resolved once, at compile time.
//     A message program resolves the JMS header names to header slots,
//     so evaluating JMSPriority against a *message.Message is a direct
//     field load instead of a string switch per message, and every other
//     name to a property lookup. A CompileFields program resolves names
//     through its caller's Columns (for an R-GMA table, column name to
//     row index), and evaluating it loads a field by that index.
//
// The compiled evaluator is semantically bit-identical to the interpreted
// one (EvalInterpreted), including three-valued NULL propagation and the
// interpreter's corner behaviours (an arithmetic expression used as a
// boolean condition is FALSE, never UNKNOWN, and never evaluates its
// operands). The conformance suite in conformance_test.go runs every case
// against both evaluators.

type opcode uint8

const (
	opConst    opcode = iota // push consts[a]
	opField                  // push the value of field a
	opNot                    // pop v; push NOT triOf(v)
	opAnd                    // pop r, l; push triOf(l) AND triOf(r)
	opOr                     // pop r, l; push triOf(l) OR triOf(r)
	opJmpFalse               // if triOf(top) is FALSE jump to a (top stays)
	opJmpTrue                // if triOf(top) is TRUE jump to a (top stays)
	opToVal                  // pop v; push triToVal(triOf(v)) — value-context normalisation
	opCmp                    // pop r, l; push comparison verdict; a is a cmpCode
	opAdd                    // pop r, l; push l+r
	opSub                    // pop r, l; push l-r
	opMul                    // pop r, l; push l*r
	opDivOp                  // pop r, l; push l/r
	opNeg                    // pop v; push -v
	opBetween                // pop hi, lo, v; push BETWEEN verdict; not flag honoured
	opIn                     // push IN verdict for field b against inSets[a]
	opLike                   // push LIKE verdict for field b against matchers[a]
	opIsNull                 // push IS NULL verdict for field b

	// Fused forms for the dominant selector shapes: they skip the operand
	// pushes entirely.
	opCmpFC     // push field a CMP consts[b]; aux is the cmpCode
	opCmpFF     // push field a CMP field b; aux is the cmpCode
	opBetweenIC // push field a BETWEEN consts[b] AND consts[b+1]; not flag honoured
)

// cmpCode is a pre-resolved comparison operator.
type cmpCode uint8

const (
	cmpEQ cmpCode = iota
	cmpNE
	cmpLT
	cmpLE
	cmpGT
	cmpGE
	cmpBad // unrecognised operator string: always UNKNOWN, like cmpOrdered
)

// mirror maps each comparison to the one that holds with its operands
// swapped.
var mirror = [...]cmpCode{cmpEQ: cmpEQ, cmpNE: cmpNE, cmpLT: cmpGT, cmpLE: cmpGE, cmpGT: cmpLT, cmpGE: cmpLE, cmpBad: cmpBad}

func cmpCodeOf(op string) cmpCode {
	switch op {
	case "=":
		return cmpEQ
	case "<>":
		return cmpNE
	case "<":
		return cmpLT
	case "<=":
		return cmpLE
	case ">":
		return cmpGT
	case ">=":
		return cmpGE
	}
	return cmpBad
}

// headerSlot pre-resolves the JMS header pseudo-properties a selector may
// reference; hdrNone means the identifier is a user property.
type headerSlot uint8

const (
	hdrNone headerSlot = iota
	hdrPriority
	hdrTimestamp
	hdrMessageID
	hdrCorrelationID
	hdrType
	hdrDeliveryMode
	hdrRedelivered
)

func headerSlotOf(name string) headerSlot {
	switch name {
	case "JMSPriority":
		return hdrPriority
	case "JMSTimestamp":
		return hdrTimestamp
	case "JMSMessageID":
		return hdrMessageID
	case "JMSCorrelationID":
		return hdrCorrelationID
	case "JMSType":
		return hdrType
	case "JMSDeliveryMode":
		return hdrDeliveryMode
	case "JMSRedelivered":
		return hdrRedelivered
	}
	return hdrNone
}

type fieldSlot struct {
	name string
	hdr  headerSlot
}

type ins struct {
	op  opcode
	not bool  // BETWEEN/IN/LIKE/IS NULL negation
	aux uint8 // cmpCode for fused comparisons
	a   int32
	b   int32
}

// Program is the compiled form of a selector.
type Program struct {
	ins      []ins
	consts   []Value
	slots    []fieldSlot // a message program's names; the field indexes index it
	inSets   [][]string
	matchers []*likeMatcher
	maxStack int
	ordStr   bool // the SQL dialect: strings are ordered

	// fc short-circuits the instruction loop for single-comparison
	// programs ("id < 10000" and friends), the dominant selector shape in
	// the paper's workload.
	fc *fastCmp
}

// fastCmp is a pre-decoded `field OP constant` comparison.
type fastCmp struct {
	slot int32
	code cmpCode
	c    Value
}

// triOf classifies a runtime value as a boolean condition: booleans are
// their value, NULL and unselectable values are UNKNOWN, anything else is
// FALSE.
func triOf(v Value) Tri {
	switch v.kind {
	case vBool:
		return boolTri(v.i != 0)
	case vNull, vOpaque:
		return TriUnknown
	}
	return TriFalse
}

// --- compiler ---

type compiler struct {
	p     *Program
	depth int     // current stack depth during emission
	cols  Columns // a CompileFields program's layout; nil for a message program
}

func compileProgram(root expr, ordStr bool, cols Columns) *Program {
	c := &compiler{p: &Program{ordStr: ordStr}, cols: cols}
	c.compileBool(root)
	p := c.p
	if len(p.ins) == 1 {
		if in := p.ins[0]; in.op == opCmpFC {
			p.fc = &fastCmp{slot: in.a, code: cmpCode(in.aux), c: p.consts[in.b]}
		}
	}
	return p
}

func (c *compiler) emit(i ins, delta int) int {
	c.p.ins = append(c.p.ins, i)
	c.depth += delta
	if c.depth > c.p.maxStack {
		c.p.maxStack = c.depth
	}
	return len(c.p.ins) - 1
}

func (c *compiler) constIdx(v Value) int32 {
	for i, cv := range c.p.consts {
		if cv == v {
			return int32(i)
		}
	}
	c.p.consts = append(c.p.consts, v)
	return int32(len(c.p.consts) - 1)
}

// slotIdx resolves a name to the field index the program loads.
func (c *compiler) slotIdx(name string) int32 {
	if c.cols != nil {
		return int32(c.cols.ColIndex(name))
	}
	for i, s := range c.p.slots {
		if s.name == name {
			return int32(i)
		}
	}
	c.p.slots = append(c.p.slots, fieldSlot{name: name, hdr: headerSlotOf(name)})
	return int32(len(c.p.slots) - 1)
}

// isConst reports whether a subtree references no message state, making it
// foldable at compile time. IN/LIKE/IS NULL always read a field; every
// other node is constant when its children are.
func isConst(e expr) bool {
	switch v := e.(type) {
	case *litExpr:
		return true
	case *notExpr:
		return isConst(v.inner)
	case *andExpr:
		return isConst(v.l) && isConst(v.r)
	case *orExpr:
		return isConst(v.l) && isConst(v.r)
	case *cmpExpr:
		return isConst(v.l) && isConst(v.r)
	case *arithExpr:
		return isConst(v.l) && isConst(v.r)
	case *negExpr:
		return isConst(v.inner)
	case *betweenExpr:
		return isConst(v.e) && isConst(v.lo) && isConst(v.hi)
	}
	return false
}

// fold returns the verdict of a subtree used as a condition when no input
// can change it. cols is a CompileFields layout, which reads a name it
// lacks as NULL; nil lacks no name.
// Arithmetic as a condition is FALSE without evaluating its operands,
// exactly as the interpreter decides. Folding skips operands the
// interpreter would evaluate, which is unobservable: evaluation has no
// side effects.
func fold(e expr, cols Columns) (Tri, bool) {
	absent := func(name string) bool { return cols != nil && cols.ColIndex(name) < 0 }
	isNull := func(x expr) bool {
		if id, ok := x.(*identExpr); ok {
			return absent(id.name)
		}
		return isConst(x) && x.evalVal(nil).kind == vNull
	}
	switch v := e.(type) {
	case *arithExpr, *negExpr:
		return TriFalse, true
	case *identExpr:
		if isNull(v) {
			return TriUnknown, true
		}
	case *isNullExpr:
		if absent(v.ident) {
			return boolTri(!v.not), true
		}
	case *cmpExpr:
		if isNull(v.l) || isNull(v.r) {
			return TriUnknown, true
		}
	case *notExpr:
		if t, ok := fold(v.inner, cols); ok {
			return triNot(t), true
		}
	case *andExpr:
		lt, lok := fold(v.l, cols)
		rt, rok := fold(v.r, cols)
		if lok && lt == TriFalse || rok && rt == TriFalse {
			return TriFalse, true
		}
		if lok && rok {
			return triAnd(lt, rt), true
		}
	case *orExpr:
		lt, lok := fold(v.l, cols)
		rt, rok := fold(v.r, cols)
		if lok && lt == TriTrue || rok && rt == TriTrue {
			return TriTrue, true
		}
		if lok && rok {
			return triOr(lt, rt), true
		}
	}
	if isConst(e) {
		return e.evalBool(nil), true
	}
	return 0, false
}

// compileBool emits code whose final stack value, classified through
// triOf, equals node.evalBool. Foldable subtrees compile to one push.
func (c *compiler) compileBool(e expr) {
	if t, ok := fold(e, c.cols); ok {
		c.emit(ins{op: opConst, a: c.constIdx(triToVal(t))}, 1)
		return
	}
	switch v := e.(type) {
	case *identExpr:
		c.emit(ins{op: opField, a: c.slotIdx(v.name)}, 1)
	case *notExpr:
		c.compileBool(v.inner)
		c.emit(ins{op: opNot}, 0)
	case *andExpr:
		// A folded side is TRUE or UNKNOWN here (FALSE folded the whole
		// node). TRUE is the identity and vanishes; UNKNOWN combines
		// without a jump.
		if lt, ok := fold(v.l, c.cols); ok {
			c.combine(lt, v.r, opAnd)
			return
		}
		if rt, ok := fold(v.r, c.cols); ok {
			c.combine(rt, v.l, opAnd)
			return
		}
		// Short-circuit: a FALSE left operand jumps over the right side
		// and the combine, leaving itself as the result (its triOf is
		// FALSE, which every consumer classifies identically).
		c.compileBool(v.l)
		j := c.emit(ins{op: opJmpFalse}, 0)
		c.compileBool(v.r)
		c.emit(ins{op: opAnd}, -1)
		c.p.ins[j].a = int32(len(c.p.ins))
	case *orExpr:
		if lt, ok := fold(v.l, c.cols); ok {
			c.combine(lt, v.r, opOr)
			return
		}
		if rt, ok := fold(v.r, c.cols); ok {
			c.combine(rt, v.l, opOr)
			return
		}
		c.compileBool(v.l)
		j := c.emit(ins{op: opJmpTrue}, 0)
		c.compileBool(v.r)
		c.emit(ins{op: opOr}, -1)
		c.p.ins[j].a = int32(len(c.p.ins))
	case *cmpExpr:
		code := uint8(cmpCodeOf(v.op))
		li, lIdent := v.l.(*identExpr)
		ri, rIdent := v.r.(*identExpr)
		switch {
		case lIdent && isConst(v.r):
			c.emit(ins{op: opCmpFC, aux: code, a: c.slotIdx(li.name), b: c.constIdx(v.r.evalVal(nil))}, 1)
		case isConst(v.l) && rIdent:
			// `constant OP field` is `field OP' constant`, OP mirrored.
			c.emit(ins{op: opCmpFC, aux: uint8(mirror[code]), a: c.slotIdx(ri.name), b: c.constIdx(v.l.evalVal(nil))}, 1)
		case lIdent && rIdent:
			c.emit(ins{op: opCmpFF, aux: code, a: c.slotIdx(li.name), b: c.slotIdx(ri.name)}, 1)
		default:
			c.compileVal(v.l)
			c.compileVal(v.r)
			c.emit(ins{op: opCmp, a: int32(cmpCodeOf(v.op))}, -1)
		}
	case *betweenExpr:
		if ei, ok := v.e.(*identExpr); ok && isConst(v.lo) && isConst(v.hi) {
			// The bounds are force-appended so they sit adjacent.
			lo := int32(len(c.p.consts))
			c.p.consts = append(c.p.consts, v.lo.evalVal(nil), v.hi.evalVal(nil))
			c.emit(ins{op: opBetweenIC, not: v.not, a: c.slotIdx(ei.name), b: lo}, 1)
			return
		}
		c.compileVal(v.e)
		c.compileVal(v.lo)
		c.compileVal(v.hi)
		c.emit(ins{op: opBetween, not: v.not}, -2)
	case *inExpr:
		c.p.inSets = append(c.p.inSets, v.set)
		c.emit(ins{op: opIn, not: v.not, a: int32(len(c.p.inSets) - 1), b: c.slotIdx(v.ident)}, 1)
	case *likeExpr:
		c.p.matchers = append(c.p.matchers, v.matcher)
		c.emit(ins{op: opLike, not: v.not, a: int32(len(c.p.matchers) - 1), b: c.slotIdx(v.ident)}, 1)
	case *isNullExpr:
		c.emit(ins{op: opIsNull, not: v.not, b: c.slotIdx(v.ident)}, 1)
	default:
		panic("selector: compileBool of unknown node")
	}
}

// combine emits a connective with one folded side t, which is not the
// side that decides it (that folded the whole node): the identity (TRUE
// for AND, FALSE for OR) vanishes, UNKNOWN combines without a jump.
func (c *compiler) combine(t Tri, other expr, op opcode) {
	if t != TriUnknown {
		c.compileBool(other)
		return
	}
	c.emit(ins{op: opConst, a: c.constIdx(NullValue())}, 1)
	c.compileBool(other)
	c.emit(ins{op: op}, -1)
}

// compileVal emits code whose final stack value equals node.evalVal.
func (c *compiler) compileVal(e expr) {
	if isConst(e) {
		c.emit(ins{op: opConst, a: c.constIdx(e.evalVal(nil))}, 1)
		return
	}
	switch v := e.(type) {
	case *litExpr:
		c.emit(ins{op: opConst, a: c.constIdx(v.v)}, 1)
	case *identExpr:
		c.emit(ins{op: opField, a: c.slotIdx(v.name)}, 1)
	case *arithExpr:
		c.compileVal(v.l)
		c.compileVal(v.r)
		var op opcode
		switch v.op {
		case '+':
			op = opAdd
		case '-':
			op = opSub
		case '*':
			op = opMul
		default:
			op = opDivOp
		}
		c.emit(ins{op: op}, -1)
	case *negExpr:
		c.compileVal(v.inner)
		c.emit(ins{op: opNeg}, 0)
	default:
		// Boolean-valued nodes in value position: evalVal is
		// triToVal(evalBool), which opToVal normalises.
		c.compileBool(e)
		c.emit(ins{op: opToVal}, 0)
	}
}

// --- evaluator ---

// Columns is a field layout a predicate compiles against: ColIndex maps a
// name to the index a Fields source holds it at, or to a negative index
// for a name the layout lacks. *sqlmini.Table is one.
type Columns interface {
	ColIndex(name string) int
}

// Fields is a source of field values for a program compiled by
// CompileFields: Field(i) returns the value at the index ColIndex gave
// for a name, and NULL for an index outside the source.
type Fields interface {
	Field(i int) Value
}

// msgFields is a message source as a message program's Fields: a field
// index names one of the program's slots.
type msgFields struct {
	p   *Program
	m   *message.Message // src as a *message.Message, or nil
	src Source
}

// Field resolves one slot to a runtime value. For *message.Message
// sources, pre-resolved headers skip the per-message string switch; other
// Source implementations fall back to SelectorField.
func (f msgFields) Field(idx int) Value {
	s, m := &f.p.slots[idx], f.m
	if m == nil {
		mv, ok := f.src.SelectorField(s.name)
		if !ok {
			return NullValue()
		}
		return fromMessage(mv)
	}
	switch s.hdr {
	case hdrPriority:
		return LongValue(int64(m.Priority))
	case hdrTimestamp:
		return LongValue(m.Timestamp)
	case hdrMessageID:
		return StringValue(m.ID)
	case hdrCorrelationID:
		return StringValue(m.CorrelationID)
	case hdrType:
		return StringValue(m.Type)
	case hdrDeliveryMode:
		if m.Mode == message.Persistent {
			return StringValue("PERSISTENT")
		}
		return StringValue("NON_PERSISTENT")
	case hdrRedelivered:
		return boolValue(m.Redelivered)
	}
	mv, ok := m.Property(s.name)
	if !ok {
		return NullValue()
	}
	return fromMessage(mv)
}

// cmpVals replicates cmpExpr.evalBool over two already-evaluated operands;
// ordStr orders strings, as the SQL dialect does. The right operand is
// passed by reference so that every argument travels in registers.
func cmpVals(code cmpCode, lv Value, rv *Value, ordStr bool) Tri {
	if lv.kind == vNull || rv.kind == vNull {
		return TriUnknown
	}
	if lv.isNumeric() && rv.isNumeric() {
		if lv.kind == vLong && rv.kind == vLong {
			return cmpCoded(code, compareInt(lv.i, rv.i), true)
		}
		c, ordered := compareFloat(lv.asDouble(), rv.asDouble())
		return cmpCoded(code, c, ordered)
	}
	if lv.kind == vString && rv.kind == vString {
		switch code {
		case cmpEQ:
			return boolTri(lv.s == rv.s)
		case cmpNE:
			return boolTri(lv.s != rv.s)
		}
		if ordStr {
			return cmpCoded(code, strings.Compare(lv.s, rv.s), true)
		}
		return TriUnknown
	}
	if lv.kind == vBool && rv.kind == vBool {
		switch code {
		case cmpEQ:
			return boolTri(lv.i == rv.i)
		case cmpNE:
			return boolTri(lv.i != rv.i)
		}
		return TriUnknown
	}
	return TriUnknown
}

func cmpCoded(code cmpCode, c int, ordered bool) Tri {
	switch code {
	case cmpEQ:
		return boolTri(ordered && c == 0)
	case cmpNE:
		// IEEE/Java: NaN is unequal to everything, including itself.
		return boolTri(!ordered || c != 0)
	case cmpLT:
		return boolTri(ordered && c < 0)
	case cmpLE:
		return boolTri(ordered && c <= 0)
	case cmpGT:
		return boolTri(ordered && c > 0)
	case cmpGE:
		return boolTri(ordered && c >= 0)
	}
	return TriUnknown
}

func arithVals(op opcode, lv, rv Value) Value {
	if !lv.isNumeric() || !rv.isNumeric() {
		return NullValue()
	}
	if lv.kind == vLong && rv.kind == vLong {
		switch op {
		case opAdd:
			return LongValue(lv.i + rv.i)
		case opSub:
			return LongValue(lv.i - rv.i)
		case opMul:
			return LongValue(lv.i * rv.i)
		case opDivOp:
			if rv.i == 0 {
				return NullValue()
			}
			return LongValue(lv.i / rv.i)
		}
	}
	a, b := lv.asDouble(), rv.asDouble()
	switch op {
	case opAdd:
		return DoubleValue(a + b)
	case opSub:
		return DoubleValue(a - b)
	case opMul:
		return DoubleValue(a * b)
	case opDivOp:
		return DoubleValue(a / b)
	}
	return NullValue()
}

func betweenVals(not bool, v, lo, hi Value) Tri {
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
	if not {
		return boolTri(!in)
	}
	return boolTri(in)
}

// Eval runs a message program (Selector.Compiled) against a message
// source and returns the three-valued verdict. A nil or empty program
// matches every message.
func (p *Program) Eval(src Source) Tri {
	m, _ := src.(*message.Message)
	return EvalFields(p, msgFields{p: p, m: m, src: src})
}

// EvalFields runs a program against its field source and returns the
// three-valued verdict. A nil or empty program is TRUE for every source.
// It allocates nothing unless the program's stack outgrows 16 values.
func EvalFields[F Fields](p *Program, f F) Tri {
	if p == nil || len(p.ins) == 0 {
		return TriTrue
	}
	if p.fc != nil {
		return cmpVals(p.fc.code, f.Field(int(p.fc.slot)), &p.fc.c, p.ordStr)
	}
	// The value stack lives in this frame, sized so that the usual
	// shallow program zeroes little of it.
	if p.maxStack <= 4 {
		var stack [4]Value
		return run(p, f, stack[:])
	}
	if p.maxStack <= 16 {
		var stack [16]Value
		return run(p, f, stack[:])
	}
	return run(p, f, make([]Value, p.maxStack))
}

// run executes p's instructions over a value stack of at least maxStack.
func run[F Fields](p *Program, f F, stack []Value) Tri {
	sp := 0
	code := p.ins
	for pc := 0; pc < len(code); pc++ {
		in := &code[pc]
		switch in.op {
		case opConst:
			stack[sp] = p.consts[in.a]
			sp++
		case opField:
			stack[sp] = f.Field(int(in.a))
			sp++
		case opNot:
			stack[sp-1] = triToVal(triNot(triOf(stack[sp-1])))
		case opAnd:
			sp--
			stack[sp-1] = triToVal(triAnd(triOf(stack[sp-1]), triOf(stack[sp])))
		case opOr:
			sp--
			stack[sp-1] = triToVal(triOr(triOf(stack[sp-1]), triOf(stack[sp])))
		case opJmpFalse:
			if triOf(stack[sp-1]) == TriFalse {
				pc = int(in.a) - 1
			}
		case opJmpTrue:
			if triOf(stack[sp-1]) == TriTrue {
				pc = int(in.a) - 1
			}
		case opToVal:
			stack[sp-1] = triToVal(triOf(stack[sp-1]))
		case opCmp:
			sp--
			stack[sp-1] = triToVal(cmpVals(cmpCode(in.a), stack[sp-1], &stack[sp], p.ordStr))
		case opAdd, opSub, opMul, opDivOp:
			sp--
			stack[sp-1] = arithVals(in.op, stack[sp-1], stack[sp])
		case opNeg:
			v := stack[sp-1]
			switch v.kind {
			case vLong:
				stack[sp-1] = LongValue(-v.i)
			case vDouble:
				stack[sp-1] = DoubleValue(-v.f())
			default:
				stack[sp-1] = NullValue()
			}
		case opBetween:
			sp -= 2
			stack[sp-1] = triToVal(betweenVals(in.not, stack[sp-1], stack[sp], stack[sp+1]))
		case opIn:
			v := f.Field(int(in.b))
			var t Tri
			if v.kind != vString {
				t = TriUnknown
			} else {
				found := false
				for _, x := range p.inSets[in.a] {
					if x == v.s {
						found = true
						break
					}
				}
				if in.not {
					found = !found
				}
				t = boolTri(found)
			}
			stack[sp] = triToVal(t)
			sp++
		case opLike:
			v := f.Field(int(in.b))
			var t Tri
			if v.kind != vString {
				t = TriUnknown
			} else {
				ok := p.matchers[in.a].match(v.s)
				if in.not {
					ok = !ok
				}
				t = boolTri(ok)
			}
			stack[sp] = triToVal(t)
			sp++
		case opCmpFC:
			stack[sp] = triToVal(cmpVals(cmpCode(in.aux), f.Field(int(in.a)), &p.consts[in.b], p.ordStr))
			sp++
		case opCmpFF:
			r := f.Field(int(in.b))
			stack[sp] = triToVal(cmpVals(cmpCode(in.aux), f.Field(int(in.a)), &r, p.ordStr))
			sp++
		case opBetweenIC:
			v := f.Field(int(in.a))
			stack[sp] = triToVal(betweenVals(in.not, v, p.consts[in.b], p.consts[in.b+1]))
			sp++
		case opIsNull:
			// An unselectable value (vOpaque) is present: not NULL.
			isNull := f.Field(int(in.b)).kind == vNull
			if in.not {
				isNull = !isNull
			}
			stack[sp] = triToVal(boolTri(isNull))
			sp++
		}
	}
	return triOf(stack[sp-1])
}

// Matches reports whether the program accepts the message (TRUE verdict;
// FALSE and UNKNOWN both reject, per JMS).
func (p *Program) Matches(src Source) bool { return p.Eval(src) == TriTrue }

// ConstVerdict reports whether the program's verdict is independent of its
// input, and if so what it is. The broker uses this to place always-true
// selectors on the no-evaluation fast path.
func (p *Program) ConstVerdict() (Tri, bool) {
	if p == nil || len(p.ins) == 0 {
		return TriTrue, true
	}
	if len(p.ins) == 1 && p.ins[0].op == opConst {
		return triOf(p.consts[p.ins[0].a]), true
	}
	return TriFalse, false
}
