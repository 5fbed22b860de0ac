// Package sqlmini implements the SQL subset that R-GMA exposes on its
// "virtual database": CREATE TABLE, INSERT, and SELECT with WHERE
// predicates. The paper's producers publish monitoring tuples with SQL
// INSERT statements and consumers pose continuous/latest/history SELECT
// queries; R-GMA's content-based filtering is exactly WHERE-predicate
// evaluation. This package provides the statement parser and the type
// system the rgma package builds on.
//
// A WHERE clause is not parsed here: Parse hands its text to the
// predicate engine the JMS selectors use (internal/selector), in that
// engine's SQL dialect, and Select.Where holds the result.
// Select.Compiled compiles it against a table, resolving each column name
// to its row index once; the program's Eval reads row[index] directly.
// RowSource shows a row by name, for the engine's tree-walking reference
// evaluator and its matching-index probe.
//
// Everything in the package is shard-safe in the read direction: parsed
// statements, Tables, Rows and compiled Programs are immutable after
// construction and may be shared freely across goroutines. There is no
// mutable package state.
package sqlmini

import (
	"errors"
	"fmt"
	"strconv"
	"strings"

	"gridmon/internal/message"
	"gridmon/internal/predindex"
	"gridmon/internal/selector"
)

// ColType enumerates supported column types (the subset R-GMA's schema
// service supports that the paper's workload uses).
type ColType uint8

// Column types.
const (
	TInteger ColType = iota + 1
	TReal
	TDouble
	TChar
	TVarchar
)

func (t ColType) String() string {
	switch t {
	case TInteger:
		return "INTEGER"
	case TReal:
		return "REAL"
	case TDouble:
		return "DOUBLE PRECISION"
	case TChar:
		return "CHAR"
	case TVarchar:
		return "VARCHAR"
	}
	return "TYPE(?)"
}

// Column is one schema column.
type Column struct {
	Name    string
	Type    ColType
	Len     int  // for CHAR/VARCHAR
	Primary bool // PRIMARY KEY column (R-GMA latest-query identity)
}

// Table is a schema definition.
type Table struct {
	Name    string
	Columns []Column
}

// ColIndex returns the index of a column by name (-1 when absent).
// Column names are case-insensitive, as in SQL.
func (t *Table) ColIndex(name string) int {
	for i, c := range t.Columns {
		if strings.EqualFold(c.Name, name) {
			return i
		}
	}
	return -1
}

// PrimaryKey returns the indexes of primary-key columns.
func (t *Table) PrimaryKey() []int {
	var out []int
	for i, c := range t.Columns {
		if c.Primary {
			out = append(out, i)
		}
	}
	return out
}

// CreateSQL renders the schema back to a CREATE TABLE statement that
// Parse accepts and that round-trips to an identical Table. Persistence
// layers journal this canonical form rather than the client's original
// text, so replayed schemas compare equal under sameSchema checks.
func (t *Table) CreateSQL() string {
	var sb strings.Builder
	sb.WriteString("CREATE TABLE ")
	sb.WriteString(t.Name)
	sb.WriteString(" (")
	for i, c := range t.Columns {
		if i > 0 {
			sb.WriteString(", ")
		}
		sb.WriteString(c.Name)
		sb.WriteByte(' ')
		sb.WriteString(c.Type.String())
		if c.Type == TChar || c.Type == TVarchar {
			sb.WriteString("(")
			sb.WriteString(strconv.Itoa(c.Len))
			sb.WriteString(")")
		}
		if c.Primary {
			sb.WriteString(" PRIMARY KEY")
		}
	}
	sb.WriteString(")")
	return sb.String()
}

// InsertSQL renders a row (in table column order) as an INSERT statement
// that Parse accepts and ReorderInsert maps back to the same row —
// Value.String emits exact literal forms (FormatFloat -1 precision), so
// the round-trip is lossless. Persistence layers use it to re-emit
// stored tuples as compacted journal records.
func InsertSQL(table string, row Row) string {
	var sb strings.Builder
	sb.WriteString("INSERT INTO ")
	sb.WriteString(table)
	sb.WriteString(" VALUES (")
	for i, v := range row {
		if i > 0 {
			sb.WriteString(", ")
		}
		if v.Kind == VFloat {
			// Whole floats must not collapse to integer literals — the
			// parser would hand back VInt and the round-trip would change
			// the value's kind.
			s := strconv.FormatFloat(v.F, 'g', -1, 64)
			if !strings.ContainsAny(s, ".eE") {
				s += ".0"
			}
			sb.WriteString(s)
		} else {
			sb.WriteString(v.String())
		}
	}
	sb.WriteString(")")
	return sb.String()
}

// Value is a SQL runtime value.
type Value struct {
	Kind ValueKind
	Int  int64
	F    float64
	Str  string
}

// ValueKind tags Value.
type ValueKind uint8

// Value kinds.
const (
	VNull ValueKind = iota
	VInt
	VFloat
	VString
)

// Null, IntV, FloatV and StringV construct values.
func Null() Value            { return Value{} }
func IntV(n int64) Value     { return Value{Kind: VInt, Int: n} }
func FloatV(f float64) Value { return Value{Kind: VFloat, F: f} }
func StringV(s string) Value { return Value{Kind: VString, Str: s} }

// IsNull reports SQL NULL.
func (v Value) IsNull() bool { return v.Kind == VNull }

// AsFloat promotes numerics.
func (v Value) AsFloat() float64 {
	if v.Kind == VInt {
		return float64(v.Int)
	}
	return v.F
}

// String renders a SQL literal form.
func (v Value) String() string {
	switch v.Kind {
	case VNull:
		return "NULL"
	case VInt:
		return strconv.FormatInt(v.Int, 10)
	case VFloat:
		return strconv.FormatFloat(v.F, 'g', -1, 64)
	default:
		return "'" + strings.ReplaceAll(v.Str, "'", "''") + "'"
	}
}

// Equal compares values strictly (kind-sensitive, for tests).
func (v Value) Equal(o Value) bool { return v == o }

// Row is one tuple.
type Row []Value

// Field returns column i as a predicate-engine value (NULL outside the
// row), so a compiled Program reads a row with no name lookup.
func (r Row) Field(i int) selector.Value {
	if uint(i) < uint(len(r)) {
		switch v := &r[i]; v.Kind {
		case VInt:
			return selector.LongValue(v.Int)
		case VFloat:
			return selector.DoubleValue(v.F)
		case VString:
			return selector.StringValue(v.Str)
		}
	}
	return selector.NullValue()
}

// RowSource shows a row by name: each name resolves through the table's
// case-insensitive ColIndex on every call, and a column the table lacks
// or the row does not reach is absent. It is the predicate engine's
// Source for the reference evaluator (Where.EvalInterpreted) and the
// matching-index probe.
type RowSource struct {
	Table *Table
	Row   Row
}

// SelectorField implements selector.Source.
func (s *RowSource) SelectorField(name string) (message.Value, bool) {
	i := s.Table.ColIndex(name)
	if i < 0 || i >= len(s.Row) {
		return message.Value{}, false
	}
	switch v := s.Row[i]; v.Kind {
	case VInt:
		return message.Long(v.Int), true
	case VFloat:
		return message.Double(v.F), true
	case VString:
		return message.String(v.Str), true
	}
	return message.Null(), true
}

// ProbeAttr resolves one attribute of a matching index built over WHERE
// keys (Where.RequiredKey) against the row.
func (s *RowSource) ProbeAttr(attr string) (predindex.Value, bool) {
	return s.Row.Field(s.Table.ColIndex(attr)).Probe()
}

// Stmt is a parsed statement.
type Stmt interface{ stmt() }

// CreateTable is a parsed CREATE TABLE.
type CreateTable struct {
	Table Table
}

// Insert is a parsed INSERT.
type Insert struct {
	Table   string
	Columns []string
	Values  []Value
}

// Select is a parsed SELECT.
type Select struct {
	Columns []string // nil means *
	Table   string
	Where   *selector.Selector // SQL dialect; nil means no predicate
}

func (CreateTable) stmt() {}
func (Insert) stmt()      {}
func (Select) stmt()      {}

// ErrSyntax wraps all parse failures.
var ErrSyntax = errors.New("sqlmini: syntax error")

// --- lexer ---

type sqlToken struct {
	kind byte // 'i' ident/keyword (upper), 'n' number, 's' string, 'p' punct, 0 EOF
	text string
	ival int64
	fval float64
	isF  bool
	pos  int
}

type sqlLexer struct {
	src string
	pos int
}

func (l *sqlLexer) errf(pos int, format string, args ...any) error {
	return fmt.Errorf("%w: %s at offset %d in %q", ErrSyntax, fmt.Sprintf(format, args...), pos, l.src)
}

func (l *sqlLexer) next() (sqlToken, error) {
	for l.pos < len(l.src) {
		c := l.src[l.pos]
		if c == ' ' || c == '\t' || c == '\n' || c == '\r' {
			l.pos++
			continue
		}
		break
	}
	if l.pos >= len(l.src) {
		return sqlToken{pos: l.pos}, nil
	}
	start := l.pos
	c := l.src[l.pos]
	switch {
	case c == '_' || (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z'):
		for l.pos < len(l.src) {
			c := l.src[l.pos]
			if c == '_' || (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') || (c >= '0' && c <= '9') {
				l.pos++
				continue
			}
			break
		}
		return sqlToken{kind: 'i', text: l.src[start:l.pos], pos: start}, nil
	case c >= '0' && c <= '9', c == '.' && l.pos+1 < len(l.src) && l.src[l.pos+1] >= '0' && l.src[l.pos+1] <= '9':
		isF := false
		for l.pos < len(l.src) {
			c := l.src[l.pos]
			if c >= '0' && c <= '9' {
				l.pos++
			} else if c == '.' && !isF {
				isF = true
				l.pos++
			} else if (c == 'e' || c == 'E') && l.pos+1 < len(l.src) {
				isF = true
				l.pos++
				if l.src[l.pos] == '+' || l.src[l.pos] == '-' {
					l.pos++
				}
			} else {
				break
			}
		}
		text := l.src[start:l.pos]
		if isF {
			f, err := strconv.ParseFloat(text, 64)
			if err != nil {
				return sqlToken{}, l.errf(start, "bad number %q", text)
			}
			return sqlToken{kind: 'n', text: text, fval: f, isF: true, pos: start}, nil
		}
		n, err := strconv.ParseInt(text, 10, 64)
		if err != nil {
			return sqlToken{}, l.errf(start, "bad number %q", text)
		}
		return sqlToken{kind: 'n', text: text, ival: n, pos: start}, nil
	case c == '\'':
		l.pos++
		var sb strings.Builder
		for l.pos < len(l.src) {
			if l.src[l.pos] == '\'' {
				if l.pos+1 < len(l.src) && l.src[l.pos+1] == '\'' {
					sb.WriteByte('\'')
					l.pos += 2
					continue
				}
				l.pos++
				return sqlToken{kind: 's', text: sb.String(), pos: start}, nil
			}
			sb.WriteByte(l.src[l.pos])
			l.pos++
		}
		return sqlToken{}, l.errf(start, "unterminated string")
	case c == '<':
		l.pos++
		if l.pos < len(l.src) && (l.src[l.pos] == '=' || l.src[l.pos] == '>') {
			l.pos++
		}
		return sqlToken{kind: 'p', text: l.src[start:l.pos], pos: start}, nil
	case c == '>':
		l.pos++
		if l.pos < len(l.src) && l.src[l.pos] == '=' {
			l.pos++
		}
		return sqlToken{kind: 'p', text: l.src[start:l.pos], pos: start}, nil
	case strings.ContainsRune("=(),*+-/", rune(c)):
		l.pos++
		return sqlToken{kind: 'p', text: string(c), pos: start}, nil
	}
	return sqlToken{}, l.errf(start, "unexpected character %q", string(c))
}

// --- parser ---

type sqlParser struct {
	lex *sqlLexer
	tok sqlToken
}

func (p *sqlParser) advance() error {
	t, err := p.lex.next()
	if err != nil {
		return err
	}
	p.tok = t
	return nil
}

func (p *sqlParser) errf(format string, args ...any) error {
	return p.lex.errf(p.tok.pos, format, args...)
}

func (p *sqlParser) keyword() string {
	if p.tok.kind == 'i' {
		return strings.ToUpper(p.tok.text)
	}
	return ""
}

func (p *sqlParser) expectKeyword(kw string) error {
	if p.keyword() != kw {
		return p.errf("expected %s, found %q", kw, p.tok.text)
	}
	return p.advance()
}

func (p *sqlParser) expectPunct(s string) error {
	if p.tok.kind != 'p' || p.tok.text != s {
		return p.errf("expected %q, found %q", s, p.tok.text)
	}
	return p.advance()
}

func (p *sqlParser) ident() (string, error) {
	if p.tok.kind != 'i' {
		return "", p.errf("expected identifier, found %q", p.tok.text)
	}
	name := p.tok.text
	return name, p.advance()
}

// Parse parses one SQL statement.
func Parse(src string) (Stmt, error) {
	p := &sqlParser{lex: &sqlLexer{src: src}}
	if err := p.advance(); err != nil {
		return nil, err
	}
	var s Stmt
	var err error
	switch p.keyword() {
	case "CREATE":
		s, err = p.parseCreate()
	case "INSERT":
		s, err = p.parseInsert()
	case "SELECT":
		s, err = p.parseSelect()
	default:
		return nil, p.errf("expected CREATE, INSERT or SELECT")
	}
	if err != nil {
		return nil, err
	}
	if p.tok.kind != 0 {
		return nil, p.errf("trailing input %q", p.tok.text)
	}
	return s, nil
}

func (p *sqlParser) parseCreate() (Stmt, error) {
	if err := p.advance(); err != nil { // CREATE
		return nil, err
	}
	if err := p.expectKeyword("TABLE"); err != nil {
		return nil, err
	}
	name, err := p.ident()
	if err != nil {
		return nil, err
	}
	if err := p.expectPunct("("); err != nil {
		return nil, err
	}
	t := Table{Name: name}
	for {
		col, err := p.parseColumn()
		if err != nil {
			return nil, err
		}
		t.Columns = append(t.Columns, col)
		if p.tok.kind == 'p' && p.tok.text == "," {
			if err := p.advance(); err != nil {
				return nil, err
			}
			continue
		}
		break
	}
	if err := p.expectPunct(")"); err != nil {
		return nil, err
	}
	seen := map[string]bool{}
	for _, c := range t.Columns {
		if selector.IsKeyword(c.Name) {
			// A WHERE clause could never name it.
			return nil, fmt.Errorf("%w: column name %q is a reserved word", ErrSyntax, c.Name)
		}
		lc := strings.ToLower(c.Name)
		if seen[lc] {
			return nil, fmt.Errorf("%w: duplicate column %q", ErrSyntax, c.Name)
		}
		seen[lc] = true
	}
	return CreateTable{Table: t}, nil
}

func (p *sqlParser) parseColumn() (Column, error) {
	name, err := p.ident()
	if err != nil {
		return Column{}, err
	}
	col := Column{Name: name}
	switch p.keyword() {
	case "INTEGER", "INT":
		col.Type = TInteger
	case "REAL":
		col.Type = TReal
	case "DOUBLE":
		col.Type = TDouble
		if err := p.advance(); err != nil {
			return Column{}, err
		}
		if p.keyword() != "PRECISION" {
			return Column{}, p.errf("expected PRECISION after DOUBLE")
		}
	case "CHAR", "VARCHAR":
		if p.keyword() == "CHAR" {
			col.Type = TChar
		} else {
			col.Type = TVarchar
		}
		if err := p.advance(); err != nil {
			return Column{}, err
		}
		if err := p.expectPunct("("); err != nil {
			return Column{}, err
		}
		if p.tok.kind != 'n' || p.tok.isF {
			return Column{}, p.errf("expected length")
		}
		col.Len = int(p.tok.ival)
		if err := p.advance(); err != nil {
			return Column{}, err
		}
		if err := p.expectPunct(")"); err != nil {
			return Column{}, err
		}
		goto modifiers
	default:
		return Column{}, p.errf("unknown column type %q", p.tok.text)
	}
	if err := p.advance(); err != nil {
		return Column{}, err
	}
modifiers:
	if p.keyword() == "PRIMARY" {
		if err := p.advance(); err != nil {
			return Column{}, err
		}
		if err := p.expectKeyword("KEY"); err != nil {
			return Column{}, err
		}
		col.Primary = true
	}
	return col, nil
}

func (p *sqlParser) parseInsert() (Stmt, error) {
	if err := p.advance(); err != nil { // INSERT
		return nil, err
	}
	if err := p.expectKeyword("INTO"); err != nil {
		return nil, err
	}
	name, err := p.ident()
	if err != nil {
		return nil, err
	}
	ins := Insert{Table: name}
	if p.tok.kind == 'p' && p.tok.text == "(" {
		if err := p.advance(); err != nil {
			return nil, err
		}
		for {
			col, err := p.ident()
			if err != nil {
				return nil, err
			}
			ins.Columns = append(ins.Columns, col)
			if p.tok.kind == 'p' && p.tok.text == "," {
				if err := p.advance(); err != nil {
					return nil, err
				}
				continue
			}
			break
		}
		if err := p.expectPunct(")"); err != nil {
			return nil, err
		}
	}
	if err := p.expectKeyword("VALUES"); err != nil {
		return nil, err
	}
	if err := p.expectPunct("("); err != nil {
		return nil, err
	}
	for {
		v, err := p.parseLiteral()
		if err != nil {
			return nil, err
		}
		ins.Values = append(ins.Values, v)
		if p.tok.kind == 'p' && p.tok.text == "," {
			if err := p.advance(); err != nil {
				return nil, err
			}
			continue
		}
		break
	}
	if err := p.expectPunct(")"); err != nil {
		return nil, err
	}
	if len(ins.Columns) > 0 && len(ins.Columns) != len(ins.Values) {
		return nil, fmt.Errorf("%w: %d columns but %d values", ErrSyntax, len(ins.Columns), len(ins.Values))
	}
	return ins, nil
}

func (p *sqlParser) parseLiteral() (Value, error) {
	neg := false
	if p.tok.kind == 'p' && (p.tok.text == "-" || p.tok.text == "+") {
		neg = p.tok.text == "-"
		if err := p.advance(); err != nil {
			return Value{}, err
		}
	}
	switch {
	case p.tok.kind == 'n' && p.tok.isF:
		v := p.tok.fval
		if neg {
			v = -v
		}
		return FloatV(v), p.advance()
	case p.tok.kind == 'n':
		v := p.tok.ival
		if neg {
			v = -v
		}
		return IntV(v), p.advance()
	case p.tok.kind == 's':
		if neg {
			return Value{}, p.errf("negated string")
		}
		return StringV(p.tok.text), p.advance()
	case p.keyword() == "NULL":
		if neg {
			return Value{}, p.errf("negated NULL")
		}
		return Null(), p.advance()
	}
	return Value{}, p.errf("expected literal, found %q", p.tok.text)
}

func (p *sqlParser) parseSelect() (Stmt, error) {
	if err := p.advance(); err != nil { // SELECT
		return nil, err
	}
	sel := Select{}
	if p.tok.kind == 'p' && p.tok.text == "*" {
		if err := p.advance(); err != nil {
			return nil, err
		}
	} else {
		for {
			col, err := p.ident()
			if err != nil {
				return nil, err
			}
			sel.Columns = append(sel.Columns, col)
			if p.tok.kind == 'p' && p.tok.text == "," {
				if err := p.advance(); err != nil {
					return nil, err
				}
				continue
			}
			break
		}
	}
	if err := p.expectKeyword("FROM"); err != nil {
		return nil, err
	}
	name, err := p.ident()
	if err != nil {
		return nil, err
	}
	sel.Table = name
	if p.keyword() == "WHERE" {
		// The rest of the statement is the predicate.
		base := p.lex.pos
		where, err := selector.ParseDialect(p.lex.src[base:], selector.SQL)
		if err != nil {
			var se *selector.Error
			if errors.As(err, &se) {
				return nil, p.lex.errf(base+se.Pos, "%s", se.Msg)
			}
			return nil, fmt.Errorf("%w: %v", ErrSyntax, err)
		}
		sel.Where = where
		p.lex.pos = len(p.lex.src)
		p.tok = sqlToken{pos: p.lex.pos}
	}
	return sel, nil
}

// Program is a SELECT's WHERE predicate compiled against one table's
// schema: each column name is resolved to its row index once, at compile
// time. A nil Program matches every row. Programs are immutable and safe
// for concurrent use.
type Program selector.Program

// Compiled compiles the SELECT's WHERE predicate against a schema. The
// returned program is valid only for rows of that schema.
func (sel Select) Compiled(t *Table) *Program {
	return (*Program)(sel.Where.CompileFields(t))
}

// Eval runs the program against a row and returns the SQL three-valued
// verdict: 1 true, 0 false, -1 unknown.
func (p *Program) Eval(row Row) int {
	return sqlTri(selector.EvalFields((*selector.Program)(p), row))
}

// sqlTri maps the engine's three-valued verdict to 1 true, 0 false,
// -1 unknown.
func sqlTri(t selector.Tri) int {
	switch t {
	case selector.TriTrue:
		return 1
	case selector.TriFalse:
		return 0
	}
	return -1
}

// Matches reports whether the program accepts the row (TRUE verdict;
// FALSE and UNKNOWN both reject, per SQL WHERE semantics).
func (p *Program) Matches(row Row) bool {
	return selector.EvalFields((*selector.Program)(p), row) == selector.TriTrue
}

// --- helpers used by the rgma engine ---

// CheckRow validates a row against a schema: length, types and CHAR
// length limits. Integers are accepted into REAL/DOUBLE columns.
func CheckRow(t *Table, row Row) error {
	if len(row) != len(t.Columns) {
		return fmt.Errorf("sqlmini: row has %d values, table %s has %d columns", len(row), t.Name, len(t.Columns))
	}
	for i, v := range row {
		if v.IsNull() {
			continue
		}
		col := t.Columns[i]
		switch col.Type {
		case TInteger:
			if v.Kind != VInt {
				return fmt.Errorf("sqlmini: column %s wants INTEGER, got %s", col.Name, v)
			}
		case TReal, TDouble:
			if v.Kind != VInt && v.Kind != VFloat {
				return fmt.Errorf("sqlmini: column %s wants numeric, got %s", col.Name, v)
			}
		case TChar, TVarchar:
			if v.Kind != VString {
				return fmt.Errorf("sqlmini: column %s wants string, got %s", col.Name, v)
			}
			if col.Len > 0 && len(v.Str) > col.Len {
				return fmt.Errorf("sqlmini: column %s value exceeds length %d", col.Name, col.Len)
			}
		}
	}
	return nil
}

// ReorderInsert maps an INSERT's values into schema column order,
// filling unnamed columns with NULL. An INSERT without a column list must
// cover every column in order.
func ReorderInsert(t *Table, ins Insert) (Row, error) {
	if len(ins.Columns) == 0 {
		if len(ins.Values) != len(t.Columns) {
			return nil, fmt.Errorf("sqlmini: INSERT has %d values, table %s has %d columns", len(ins.Values), t.Name, len(t.Columns))
		}
		row := make(Row, len(ins.Values))
		copy(row, ins.Values)
		return row, CheckRow(t, row)
	}
	row := make(Row, len(t.Columns))
	for i, col := range ins.Columns {
		idx := t.ColIndex(col)
		if idx < 0 {
			return nil, fmt.Errorf("sqlmini: table %s has no column %q", t.Name, col)
		}
		row[idx] = ins.Values[i]
	}
	return row, CheckRow(t, row)
}

// Project applies a SELECT's column list to a row.
func Project(t *Table, sel Select, row Row) (Row, error) {
	if sel.Columns == nil {
		out := make(Row, len(row))
		copy(out, row)
		return out, nil
	}
	out := make(Row, len(sel.Columns))
	for i, col := range sel.Columns {
		idx := t.ColIndex(col)
		if idx < 0 {
			return nil, fmt.Errorf("sqlmini: table %s has no column %q", t.Name, col)
		}
		out[i] = row[idx]
	}
	return out, nil
}

// FormatInsert renders an INSERT statement for a table and row, the form
// the R-GMA producer API puts on the wire.
func FormatInsert(t *Table, row Row) string {
	var sb strings.Builder
	sb.WriteString("INSERT INTO ")
	sb.WriteString(t.Name)
	sb.WriteString(" (")
	for i, c := range t.Columns {
		if i > 0 {
			sb.WriteString(", ")
		}
		sb.WriteString(c.Name)
	}
	sb.WriteString(") VALUES (")
	for i, v := range row {
		if i > 0 {
			sb.WriteString(", ")
		}
		sb.WriteString(v.String())
	}
	sb.WriteString(")")
	return sb.String()
}
