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
// The SQL dialect's tokens are also R-GMA's statement tokens: sqlmini
// reads CREATE TABLE, INSERT and SELECT … FROM with a Scanner and hands
// it over at WHERE, so one lexer, one literal grammar, one error shape
// and one reserved-word rule serve both middlewares' languages.
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

// TokenKind classifies a Token.
type TokenKind uint8

// Token kinds.
const (
	TokEOF TokenKind = iota
	TokIdent
	TokInt
	TokFloat
	TokString
	TokOp      // punctuation operators: = <> < <= > >= + - * / ( ) ,
	TokKeyword // AND OR NOT BETWEEN LIKE IN IS NULL ESCAPE TRUE FALSE
)

// Token is one token of the language: a Scanner's current token.
type Token struct {
	Kind  TokenKind
	Text  string  // upper case for a keyword, a string literal's value, verbatim otherwise
	Pos   int     // byte offset in the scanned text
	Int   int64   // a TokInt's value, read through Scanner.Int
	Float float64 // a TokFloat's value
}

// Error describes a parse failure with its byte offset in the scanned
// text, Expr.
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
		if len(kw) == len(word) && kw[0] == word[0]&^0x20 && strings.EqualFold(kw, word) {
			return kw
		}
	}
	return ""
}

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

func (l *lexer) next() (Token, *Error) {
	for l.pos < len(l.src) {
		c := l.src[l.pos]
		if c == ' ' || c == '\t' || c == '\n' || c == '\r' {
			l.pos++
			continue
		}
		break
	}
	if l.pos >= len(l.src) {
		return Token{Kind: TokEOF, Pos: l.pos}, nil
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
			return Token{Kind: TokKeyword, Text: kw, Pos: start}, nil
		}
		return Token{Kind: TokIdent, Text: word, Pos: start}, nil

	case isDigit(c) || (c == '.' && l.pos+1 < len(l.src) && isDigit(l.src[l.pos+1])):
		return l.number(start)

	case c == '\'':
		return l.stringLit(start)

	case c == '<':
		l.pos++
		if l.pos < len(l.src) && (l.src[l.pos] == '=' || l.src[l.pos] == '>') {
			l.pos++
			return Token{Kind: TokOp, Text: l.src[start:l.pos], Pos: start}, nil
		}
		return Token{Kind: TokOp, Text: "<", Pos: start}, nil

	case c == '>':
		l.pos++
		if l.pos < len(l.src) && l.src[l.pos] == '=' {
			l.pos++
			return Token{Kind: TokOp, Text: ">=", Pos: start}, nil
		}
		return Token{Kind: TokOp, Text: ">", Pos: start}, nil

	case c == '=' || c == '+' || c == '-' || c == '*' || c == '/' || c == '(' || c == ')' || c == ',':
		l.pos++
		return Token{Kind: TokOp, Text: l.src[start:l.pos], Pos: start}, nil
	}
	return Token{}, l.errf(start, "unexpected character %q", string(c))
}

func (l *lexer) number(start int) (Token, *Error) {
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
			return Token{}, l.errf(mark, "malformed exponent")
		}
	}
	text := l.src[start:l.pos]
	if isFloat {
		f, err := strconv.ParseFloat(text, 64)
		if err != nil {
			return Token{}, l.errf(start, "bad float literal %q", text)
		}
		return Token{Kind: TokFloat, Text: text, Float: f, Pos: start}, nil
	}
	n, err := strconv.ParseInt(text, 10, 64)
	if err != nil {
		if u, uerr := strconv.ParseUint(text, 10, 64); uerr == nil && u == 1<<63 {
			n, err = int64(u), nil // math.MinInt64, which Scanner.Int admits only after a minus
		}
	}
	if err != nil {
		return Token{}, l.errf(start, "bad integer literal %q", text)
	}
	return Token{Kind: TokInt, Text: text, Int: n, Pos: start}, nil
}

func (l *lexer) stringLit(start int) (Token, *Error) {
	for i := start + 1; i < len(l.src); i++ {
		if l.src[i] != '\'' {
			continue
		}
		if i+1 < len(l.src) && l.src[i+1] == '\'' {
			i++ // '' escapes a quote, per SQL
			continue
		}
		l.pos = i + 1
		// A copy: a row that keeps the value does not keep the statement.
		text := strings.Clone(strings.ReplaceAll(l.src[start+1:i], "''", "'"))
		return Token{Kind: TokString, Text: text, Pos: start}, nil
	}
	return Token{}, l.errf(start, "unterminated string literal")
}
