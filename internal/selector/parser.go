package selector

import (
	"fmt"
	"strings"
)

// Scanner is the predicate parser: recursive descent over the JMS
// selector grammar, reading its input one token at a time.
//
//	orExpr     := andExpr (OR andExpr)*
//	andExpr    := notExpr (AND notExpr)*
//	notExpr    := [NOT] primaryBool
//	primaryBool:= comparison, with arithmetic expressions as operands
//	comparison := arith ( cmpOp arith
//	                    | [NOT] BETWEEN arith AND arith
//	                    | [NOT] IN '(' string (',' string)* ')'
//	                    | [NOT] LIKE string [ESCAPE string]
//	                    | IS [NOT] NULL )?
//	arith      := term (('+'|'-') term)*
//	term       := unary (('*'|'/') unary)*
//	unary      := ['-'|'+'] primary
//	primary    := literal | identifier | '(' orExpr ')'
//
// The SQL dialect narrows three places the tree cannot show: a sign must
// stand directly before a literal, a parenthesised expression must be a
// condition, and '$' is not an identifier character.
//
// A caller can parse a statement around a predicate with the same
// tokens: sqlmini reads an R-GMA statement's CREATE TABLE, INSERT and
// SELECT … FROM through Next in the SQL dialect, and at WHERE calls
// Predicate, which parses the rest of the stream. Offsets, in tokens and
// errors, point into the whole input.
type Scanner struct {
	Tok Token // the current token; Next reads the first
	lex lexer
	sql bool
}

// NewScanner returns a Scanner over src in dialect d, before its first
// token.
func NewScanner(src string, d Dialect) Scanner {
	return Scanner{lex: lexer{src: src, sql: d == SQL}, sql: d == SQL}
}

// Next reads the next token into Tok.
func (p *Scanner) Next() *Error {
	t, err := p.lex.next()
	if err != nil {
		return err
	}
	p.Tok = t
	return nil
}

// Errorf returns an error at the current token.
func (p *Scanner) Errorf(format string, args ...any) *Error {
	return &Error{Pos: p.Tok.Pos, Msg: fmt.Sprintf(format, args...), Expr: p.lex.src}
}

func (p *Scanner) isKeyword(kw string) bool {
	return p.Tok.Kind == TokKeyword && p.Tok.Text == kw
}

func (p *Scanner) isOp(op string) bool {
	return p.Tok.Kind == TokOp && p.Tok.Text == op
}

func (p *Scanner) expectOp(op string) *Error {
	if !p.isOp(op) {
		return p.Errorf("expected %q, found %q", op, p.Tok.Text)
	}
	return p.Next()
}

func (p *Scanner) expectKeyword(kw string) *Error {
	if !p.isKeyword(kw) {
		return p.Errorf("expected %s, found %q", kw, p.Tok.Text)
	}
	return p.Next()
}

func (p *Scanner) parseOr() (expr, *Error) {
	left, err := p.parseAnd()
	if err != nil {
		return nil, err
	}
	for p.isKeyword("OR") {
		if err := p.Next(); err != nil {
			return nil, err
		}
		right, err := p.parseAnd()
		if err != nil {
			return nil, err
		}
		left = &orExpr{left, right}
	}
	return left, nil
}

func (p *Scanner) parseAnd() (expr, *Error) {
	left, err := p.parseNot()
	if err != nil {
		return nil, err
	}
	for p.isKeyword("AND") {
		if err := p.Next(); err != nil {
			return nil, err
		}
		right, err := p.parseNot()
		if err != nil {
			return nil, err
		}
		left = &andExpr{left, right}
	}
	return left, nil
}

func (p *Scanner) parseNot() (expr, *Error) {
	if p.isKeyword("NOT") {
		if err := p.Next(); err != nil {
			return nil, err
		}
		inner, err := p.parseNot()
		if err != nil {
			return nil, err
		}
		return &notExpr{inner}, nil
	}
	return p.parseComparison()
}

func (p *Scanner) parseComparison() (expr, *Error) {
	left, err := p.parseArith()
	if err != nil {
		return nil, err
	}
	neg := false
	if p.isKeyword("NOT") {
		// NOT here must introduce BETWEEN / IN / LIKE.
		if err := p.Next(); err != nil {
			return nil, err
		}
		neg = true
	}
	switch {
	case p.Tok.Kind == TokOp && isCmpOp(p.Tok.Text):
		if neg {
			return nil, p.Errorf("NOT before comparison operator")
		}
		op := p.Tok.Text
		if err := p.Next(); err != nil {
			return nil, err
		}
		right, err := p.parseArith()
		if err != nil {
			return nil, err
		}
		return &cmpExpr{op: op, l: left, r: right, ordStr: p.sql}, nil

	case p.isKeyword("BETWEEN"):
		if err := p.Next(); err != nil {
			return nil, err
		}
		lo, err := p.parseArith()
		if err != nil {
			return nil, err
		}
		if err := p.expectKeyword("AND"); err != nil {
			return nil, err
		}
		hi, err := p.parseArith()
		if err != nil {
			return nil, err
		}
		return &betweenExpr{not: neg, e: left, lo: lo, hi: hi}, nil

	case p.isKeyword("IN"):
		id, ok := left.(*identExpr)
		if !ok {
			return nil, p.Errorf("IN requires an identifier on the left")
		}
		if err := p.Next(); err != nil {
			return nil, err
		}
		if err := p.expectOp("("); err != nil {
			return nil, err
		}
		var set []string
		for {
			if p.Tok.Kind != TokString {
				return nil, p.Errorf("IN list requires string literals")
			}
			set = append(set, p.Tok.Text)
			if err := p.Next(); err != nil {
				return nil, err
			}
			if p.isOp(",") {
				if err := p.Next(); err != nil {
					return nil, err
				}
				continue
			}
			break
		}
		if err := p.expectOp(")"); err != nil {
			return nil, err
		}
		return &inExpr{not: neg, ident: id.name, set: set}, nil

	case p.isKeyword("LIKE"):
		id, ok := left.(*identExpr)
		if !ok {
			return nil, p.Errorf("LIKE requires an identifier on the left")
		}
		if err := p.Next(); err != nil {
			return nil, err
		}
		if p.Tok.Kind != TokString {
			return nil, p.Errorf("LIKE requires a string pattern")
		}
		pattern := p.Tok.Text
		if err := p.Next(); err != nil {
			return nil, err
		}
		escape := byte(0)
		if p.isKeyword("ESCAPE") {
			if err := p.Next(); err != nil {
				return nil, err
			}
			if p.Tok.Kind != TokString || len(p.Tok.Text) != 1 {
				return nil, p.Errorf("ESCAPE requires a single-character string")
			}
			escape = p.Tok.Text[0]
			if err := p.Next(); err != nil {
				return nil, err
			}
		}
		m, err2 := compileLike(pattern, escape)
		if err2 != nil {
			return nil, p.Errorf("%s", err2.Error())
		}
		return &likeExpr{not: neg, ident: id.name, matcher: m, pattern: pattern}, nil

	case p.isKeyword("IS"):
		if neg {
			return nil, p.Errorf("NOT before IS")
		}
		id, ok := left.(*identExpr)
		if !ok {
			return nil, p.Errorf("IS NULL requires an identifier on the left")
		}
		if err := p.Next(); err != nil {
			return nil, err
		}
		isNot := false
		if p.isKeyword("NOT") {
			isNot = true
			if err := p.Next(); err != nil {
				return nil, err
			}
		}
		if err := p.expectKeyword("NULL"); err != nil {
			return nil, err
		}
		return &isNullExpr{not: isNot, ident: id.name}, nil
	}
	if neg {
		return nil, p.Errorf("dangling NOT")
	}
	return left, nil
}

func isCmpOp(s string) bool {
	switch s {
	case "=", "<>", "<", "<=", ">", ">=":
		return true
	}
	return false
}

func (p *Scanner) parseArith() (expr, *Error) {
	left, err := p.parseTerm()
	if err != nil {
		return nil, err
	}
	for p.isOp("+") || p.isOp("-") {
		op := p.Tok.Text
		if err := p.Next(); err != nil {
			return nil, err
		}
		right, err := p.parseTerm()
		if err != nil {
			return nil, err
		}
		left = &arithExpr{op: op[0], l: left, r: right}
	}
	return left, nil
}

func (p *Scanner) parseTerm() (expr, *Error) {
	left, err := p.parseUnary()
	if err != nil {
		return nil, err
	}
	for p.isOp("*") || p.isOp("/") {
		op := p.Tok.Text
		if err := p.Next(); err != nil {
			return nil, err
		}
		right, err := p.parseUnary()
		if err != nil {
			return nil, err
		}
		left = &arithExpr{op: op[0], l: left, r: right}
	}
	return left, nil
}

func (p *Scanner) parseUnary() (expr, *Error) {
	if !p.isOp("-") && !p.isOp("+") {
		return p.parsePrimary()
	}
	neg := p.Tok.Text == "-"
	if err := p.Next(); err != nil {
		return nil, err
	}
	if p.sql && p.Tok.Kind != TokInt && p.Tok.Kind != TokFloat && p.Tok.Kind != TokString && p.Tok.Kind != TokKeyword {
		return nil, p.Errorf("a sign must precede a literal")
	}
	inner, err := p.parseUnary()
	if err != nil || !neg {
		return inner, err
	}
	return &negExpr{inner}, nil
}

func (p *Scanner) parsePrimary() (expr, *Error) {
	switch {
	case p.Tok.Kind == TokInt:
		e := &litExpr{v: LongValue(p.Tok.Int)}
		return e, p.Next()
	case p.Tok.Kind == TokFloat:
		e := &litExpr{v: DoubleValue(p.Tok.Float)}
		return e, p.Next()
	case p.Tok.Kind == TokString:
		e := &litExpr{v: StringValue(p.Tok.Text)}
		return e, p.Next()
	case p.isKeyword("TRUE"):
		return &litExpr{v: boolValue(true)}, p.Next()
	case p.isKeyword("FALSE"):
		return &litExpr{v: boolValue(false)}, p.Next()
	case p.isKeyword("NULL"):
		return &litExpr{v: NullValue()}, p.Next()
	case p.Tok.Kind == TokIdent:
		name := p.Tok.Text
		if p.sql {
			return &identExpr{name: strings.ToLower(name)}, p.Next()
		}
		if strings.HasPrefix(name, "JMSX") || !strings.HasPrefix(name, "JMS") || isAllowedJMSHeader(name) {
			e := &identExpr{name: name}
			return e, p.Next()
		}
		return nil, p.Errorf("header %s is not selectable", name)
	case p.isOp("("):
		if err := p.Next(); err != nil {
			return nil, err
		}
		inner, err := p.parseOr()
		if err != nil {
			return nil, err
		}
		if p.sql {
			switch inner.(type) {
			case *identExpr, *litExpr, *arithExpr, *negExpr:
				return nil, p.Errorf("a parenthesised expression must be a condition")
			}
		}
		if err := p.expectOp(")"); err != nil {
			return nil, err
		}
		return inner, nil
	}
	return nil, p.Errorf("unexpected token %q", p.Tok.Text)
}

// isAllowedJMSHeader lists the headers JMS permits in selectors (§3.8.1.1:
// only JMSDeliveryMode, JMSPriority, JMSMessageID, JMSTimestamp,
// JMSCorrelationID and JMSType may be referenced).
func isAllowedJMSHeader(name string) bool {
	switch name {
	case "JMSDeliveryMode", "JMSPriority", "JMSMessageID", "JMSTimestamp", "JMSCorrelationID", "JMSType":
		return true
	}
	return false
}
