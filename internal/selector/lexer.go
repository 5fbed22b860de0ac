// Package selector is the repository's one predicate engine: the SQL-92
// conditional-expression language under three-valued logic that both of
// the paper's middlewares filter with. NaradaBrokering evaluates it as a
// JMS 1.1 message selector against message headers and properties; R-GMA
// evaluates it as the WHERE clause of a SELECT against table rows. The
// paper's subscribers attach the selector "id<10000" to every
// subscription — one that filters nothing but "simulates real uses", i.e.
// charges the broker the evaluation cost — so a faithful reproduction
// needs a real parser and evaluator, not a stub.
//
// Supported grammar (per JMS §3.8.1): AND/OR/NOT with three-valued logic,
// comparison operators on numeric and string/bool operands, arithmetic
// (+ - * /), BETWEEN, IN, LIKE (with ESCAPE), IS [NOT] NULL, parentheses,
// numeric/string/boolean literals, and identifiers.
//
// The caller picks a Dialect at parse time. JMS is the selector language
// above. SQL is R-GMA's WHERE clause: the subset of comparisons of a
// column with a literal and IS [NOT] NULL tests under AND, OR and NOT, in
// which strings are ordered and names are case-insensitive.
//
// Names resolve once, at compile time. Parse compiles a JMS selector
// into a message program, which reads the JMS headers through
// pre-resolved slots and everything else as a property. CompileFields
// compiles a predicate of either dialect against another field layout,
// given as Columns (for a table, column name to row index), and
// EvalFields runs that program against a Fields source with no name
// lookup and no allocation. EvalInterpreted walks the tree instead,
// resolving every name on every evaluation: it is the reference the
// compiled programs are tested against. RequiredKey and ProbeValue serve
// the content-based matching index (internal/predindex) for both.
package selector

import (
	"fmt"
	"strconv"
	"strings"
)

type tokenKind uint8

const (
	tokEOF tokenKind = iota
	tokIdent
	tokInt
	tokFloat
	tokString
	tokOp      // punctuation operators: = <> < <= > >= + - * / ( ) ,
	tokKeyword // AND OR NOT BETWEEN LIKE IN IS NULL ESCAPE TRUE FALSE
)

type token struct {
	kind tokenKind
	text string // uppercase for keywords, verbatim otherwise
	pos  int
	ival int64
	fval float64
}

// Error describes a selector parse failure with its byte offset.
type Error struct {
	Pos  int
	Msg  string
	Expr string
}

func (e *Error) Error() string {
	return fmt.Sprintf("selector: %s at offset %d in %q", e.Msg, e.Pos, e.Expr)
}

var keywords = [...]string{"AND", "OR", "NOT", "BETWEEN", "LIKE", "IN", "IS", "NULL", "ESCAPE", "TRUE", "FALSE"}

// keyword returns the keyword word spells in any letter case, or "".
func keyword(word string) string {
	for _, kw := range keywords {
		if len(kw) == len(word) && strings.EqualFold(kw, word) {
			return kw
		}
	}
	return ""
}

// IsKeyword reports whether name, in any letter case, is a reserved word
// of the language, which a predicate cannot use as a name.
func IsKeyword(name string) bool { return keyword(name) != "" }

type lexer struct {
	src string
	pos int
	sql bool // the SQL dialect: '$' is not an identifier character
}

func isIdentStart(c byte) bool {
	return c == '_' || c == '$' || (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z')
}

func isIdentPart(c byte) bool {
	return isIdentStart(c) || (c >= '0' && c <= '9')
}

func isDigit(c byte) bool { return c >= '0' && c <= '9' }

func (l *lexer) errf(pos int, format string, args ...any) *Error {
	return &Error{Pos: pos, Msg: fmt.Sprintf(format, args...), Expr: l.src}
}

func (l *lexer) next() (token, *Error) {
	for l.pos < len(l.src) {
		c := l.src[l.pos]
		if c == ' ' || c == '\t' || c == '\n' || c == '\r' {
			l.pos++
			continue
		}
		break
	}
	if l.pos >= len(l.src) {
		return token{kind: tokEOF, pos: l.pos}, nil
	}
	start := l.pos
	c := l.src[l.pos]
	switch {
	case isIdentStart(c) && !(l.sql && c == '$'):
		for l.pos < len(l.src) && isIdentPart(l.src[l.pos]) && !(l.sql && l.src[l.pos] == '$') {
			l.pos++
		}
		word := l.src[start:l.pos]
		if kw := keyword(word); kw != "" {
			return token{kind: tokKeyword, text: kw, pos: start}, nil
		}
		return token{kind: tokIdent, text: word, pos: start}, nil

	case isDigit(c) || (c == '.' && l.pos+1 < len(l.src) && isDigit(l.src[l.pos+1])):
		return l.number(start)

	case c == '\'':
		return l.stringLit(start)

	case c == '<':
		l.pos++
		if l.pos < len(l.src) && (l.src[l.pos] == '=' || l.src[l.pos] == '>') {
			l.pos++
			return token{kind: tokOp, text: l.src[start:l.pos], pos: start}, nil
		}
		return token{kind: tokOp, text: "<", pos: start}, nil

	case c == '>':
		l.pos++
		if l.pos < len(l.src) && l.src[l.pos] == '=' {
			l.pos++
			return token{kind: tokOp, text: ">=", pos: start}, nil
		}
		return token{kind: tokOp, text: ">", pos: start}, nil

	case c == '=' || c == '+' || c == '-' || c == '*' || c == '/' || c == '(' || c == ')' || c == ',':
		l.pos++
		return token{kind: tokOp, text: string(c), pos: start}, nil
	}
	return token{}, l.errf(start, "unexpected character %q", string(c))
}

func (l *lexer) number(start int) (token, *Error) {
	isFloat := false
	for l.pos < len(l.src) && isDigit(l.src[l.pos]) {
		l.pos++
	}
	if l.pos < len(l.src) && l.src[l.pos] == '.' {
		isFloat = true
		l.pos++
		for l.pos < len(l.src) && isDigit(l.src[l.pos]) {
			l.pos++
		}
	}
	if l.pos < len(l.src) && (l.src[l.pos] == 'e' || l.src[l.pos] == 'E') {
		mark := l.pos
		l.pos++
		if l.pos < len(l.src) && (l.src[l.pos] == '+' || l.src[l.pos] == '-') {
			l.pos++
		}
		if l.pos < len(l.src) && isDigit(l.src[l.pos]) {
			isFloat = true
			for l.pos < len(l.src) && isDigit(l.src[l.pos]) {
				l.pos++
			}
		} else {
			// Not an exponent after all ("10e" would be invalid; JMS
			// identifiers cannot start mid-number, so reject).
			l.pos = mark
			return token{}, l.errf(mark, "malformed exponent")
		}
	}
	text := l.src[start:l.pos]
	if isFloat {
		f, err := strconv.ParseFloat(text, 64)
		if err != nil {
			return token{}, l.errf(start, "bad float literal %q", text)
		}
		return token{kind: tokFloat, text: text, fval: f, pos: start}, nil
	}
	n, err := strconv.ParseInt(text, 10, 64)
	if err != nil {
		return token{}, l.errf(start, "bad integer literal %q", text)
	}
	return token{kind: tokInt, text: text, ival: n, pos: start}, nil
}

func (l *lexer) stringLit(start int) (token, *Error) {
	l.pos++ // opening quote
	var sb strings.Builder
	for l.pos < len(l.src) {
		c := l.src[l.pos]
		if c == '\'' {
			if l.pos+1 < len(l.src) && l.src[l.pos+1] == '\'' {
				sb.WriteByte('\'') // '' escapes a quote, per SQL
				l.pos += 2
				continue
			}
			l.pos++
			return token{kind: tokString, text: sb.String(), pos: start}, nil
		}
		sb.WriteByte(c)
		l.pos++
	}
	return token{}, l.errf(start, "unterminated string literal")
}
