package selector

import (
	"fmt"
	"strings"
)

// Parser: recursive descent over the JMS selector grammar.
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
type parser struct {
	lex lexer
	tok token
	sql bool
}

func (p *parser) advance() *Error {
	t, err := p.lex.next()
	if err != nil {
		return err
	}
	p.tok = t
	return nil
}

func (p *parser) errf(format string, args ...any) *Error {
	return &Error{Pos: p.tok.pos, Msg: fmt.Sprintf(format, args...), Expr: p.lex.src}
}

func (p *parser) isKeyword(kw string) bool {
	return p.tok.kind == tokKeyword && p.tok.text == kw
}

func (p *parser) isOp(op string) bool {
	return p.tok.kind == tokOp && p.tok.text == op
}

func (p *parser) expectOp(op string) *Error {
	if !p.isOp(op) {
		return p.errf("expected %q, found %q", op, p.tok.text)
	}
	return p.advance()
}

func (p *parser) expectKeyword(kw string) *Error {
	if !p.isKeyword(kw) {
		return p.errf("expected %s, found %q", kw, p.tok.text)
	}
	return p.advance()
}

func (p *parser) parseOr() (expr, *Error) {
	left, err := p.parseAnd()
	if err != nil {
		return nil, err
	}
	for p.isKeyword("OR") {
		if err := p.advance(); err != nil {
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

func (p *parser) parseAnd() (expr, *Error) {
	left, err := p.parseNot()
	if err != nil {
		return nil, err
	}
	for p.isKeyword("AND") {
		if err := p.advance(); err != nil {
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

func (p *parser) parseNot() (expr, *Error) {
	if p.isKeyword("NOT") {
		if err := p.advance(); err != nil {
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

func (p *parser) parseComparison() (expr, *Error) {
	left, err := p.parseArith()
	if err != nil {
		return nil, err
	}
	neg := false
	if p.isKeyword("NOT") {
		// NOT here must introduce BETWEEN / IN / LIKE.
		if err := p.advance(); err != nil {
			return nil, err
		}
		neg = true
	}
	switch {
	case p.tok.kind == tokOp && isCmpOp(p.tok.text):
		if neg {
			return nil, p.errf("NOT before comparison operator")
		}
		op := p.tok.text
		if err := p.advance(); err != nil {
			return nil, err
		}
		right, err := p.parseArith()
		if err != nil {
			return nil, err
		}
		return &cmpExpr{op: op, l: left, r: right, ordStr: p.sql}, nil

	case p.isKeyword("BETWEEN"):
		if err := p.advance(); err != nil {
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
			return nil, p.errf("IN requires an identifier on the left")
		}
		if err := p.advance(); err != nil {
			return nil, err
		}
		if err := p.expectOp("("); err != nil {
			return nil, err
		}
		var set []string
		for {
			if p.tok.kind != tokString {
				return nil, p.errf("IN list requires string literals")
			}
			set = append(set, p.tok.text)
			if err := p.advance(); err != nil {
				return nil, err
			}
			if p.isOp(",") {
				if err := p.advance(); err != nil {
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
			return nil, p.errf("LIKE requires an identifier on the left")
		}
		if err := p.advance(); err != nil {
			return nil, err
		}
		if p.tok.kind != tokString {
			return nil, p.errf("LIKE requires a string pattern")
		}
		pattern := p.tok.text
		if err := p.advance(); err != nil {
			return nil, err
		}
		escape := byte(0)
		if p.isKeyword("ESCAPE") {
			if err := p.advance(); err != nil {
				return nil, err
			}
			if p.tok.kind != tokString || len(p.tok.text) != 1 {
				return nil, p.errf("ESCAPE requires a single-character string")
			}
			escape = p.tok.text[0]
			if err := p.advance(); err != nil {
				return nil, err
			}
		}
		m, err2 := compileLike(pattern, escape)
		if err2 != nil {
			return nil, p.errf("%s", err2.Error())
		}
		return &likeExpr{not: neg, ident: id.name, matcher: m, pattern: pattern}, nil

	case p.isKeyword("IS"):
		if neg {
			return nil, p.errf("NOT before IS")
		}
		id, ok := left.(*identExpr)
		if !ok {
			return nil, p.errf("IS NULL requires an identifier on the left")
		}
		if err := p.advance(); err != nil {
			return nil, err
		}
		isNot := false
		if p.isKeyword("NOT") {
			isNot = true
			if err := p.advance(); err != nil {
				return nil, err
			}
		}
		if err := p.expectKeyword("NULL"); err != nil {
			return nil, err
		}
		return &isNullExpr{not: isNot, ident: id.name}, nil
	}
	if neg {
		return nil, p.errf("dangling NOT")
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

func (p *parser) parseArith() (expr, *Error) {
	left, err := p.parseTerm()
	if err != nil {
		return nil, err
	}
	for p.isOp("+") || p.isOp("-") {
		op := p.tok.text
		if err := p.advance(); err != nil {
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

func (p *parser) parseTerm() (expr, *Error) {
	left, err := p.parseUnary()
	if err != nil {
		return nil, err
	}
	for p.isOp("*") || p.isOp("/") {
		op := p.tok.text
		if err := p.advance(); err != nil {
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

func (p *parser) parseUnary() (expr, *Error) {
	if !p.isOp("-") && !p.isOp("+") {
		return p.parsePrimary()
	}
	neg := p.tok.text == "-"
	if err := p.advance(); err != nil {
		return nil, err
	}
	if p.sql && p.tok.kind != tokInt && p.tok.kind != tokFloat && p.tok.kind != tokString && p.tok.kind != tokKeyword {
		return nil, p.errf("a sign must precede a literal")
	}
	inner, err := p.parseUnary()
	if err != nil || !neg {
		return inner, err
	}
	return &negExpr{inner}, nil
}

func (p *parser) parsePrimary() (expr, *Error) {
	switch {
	case p.tok.kind == tokInt:
		e := &litExpr{v: LongValue(p.tok.ival)}
		return e, p.advance()
	case p.tok.kind == tokFloat:
		e := &litExpr{v: DoubleValue(p.tok.fval)}
		return e, p.advance()
	case p.tok.kind == tokString:
		e := &litExpr{v: StringValue(p.tok.text)}
		return e, p.advance()
	case p.isKeyword("TRUE"):
		return &litExpr{v: boolValue(true)}, p.advance()
	case p.isKeyword("FALSE"):
		return &litExpr{v: boolValue(false)}, p.advance()
	case p.isKeyword("NULL"):
		return &litExpr{v: NullValue()}, p.advance()
	case p.tok.kind == tokIdent:
		name := p.tok.text
		if p.sql {
			return &identExpr{name: strings.ToLower(name)}, p.advance()
		}
		if strings.HasPrefix(name, "JMSX") || !strings.HasPrefix(name, "JMS") || isAllowedJMSHeader(name) {
			e := &identExpr{name: name}
			return e, p.advance()
		}
		return nil, p.errf("header %s is not selectable", name)
	case p.isOp("("):
		if err := p.advance(); err != nil {
			return nil, err
		}
		inner, err := p.parseOr()
		if err != nil {
			return nil, err
		}
		if p.sql {
			switch inner.(type) {
			case *identExpr, *litExpr, *arithExpr, *negExpr:
				return nil, p.errf("a parenthesised expression must be a condition")
			}
		}
		if err := p.expectOp(")"); err != nil {
			return nil, err
		}
		return inner, nil
	}
	return nil, p.errf("unexpected token %q", p.tok.text)
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
