// Package sqlmini implements the SQL subset that R-GMA exposes on its
// "virtual database": CREATE TABLE, INSERT, and SELECT with WHERE
// predicates. The paper's producers publish monitoring tuples with SQL
// INSERT statements and consumers pose continuous/latest/history SELECT
// queries; R-GMA's content-based filtering is exactly WHERE-predicate
// evaluation. This package provides the statement grammar and the type
// system the rgma package builds on.
//
// It has no lexer of its own: Parse reads a statement with the tokens of
// the predicate engine the JMS selectors use (internal/selector), in
// that engine's SQL dialect, and at WHERE the engine's parser goes on
// from the same token; Select.Where holds the result. A reserved word of
// the WHERE language is therefore no name anywhere in a statement, and
// every parse error is the engine's *selector.Error, offset into the
// whole statement.
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

// parser reads a statement from the predicate engine's tokens, in its
// SQL dialect, and at WHERE hands the same token stream to the
// predicate parser.
type parser struct{ selector.Scanner }

func (p *parser) isOp(s string) bool {
	return p.Tok.Kind == selector.TokOp && p.Tok.Text == s
}

// keyword returns the current name token in upper case, or "". A
// statement keyword is a name to the predicate engine.
func (p *parser) keyword() string {
	if p.Tok.Kind == selector.TokIdent {
		return strings.ToUpper(p.Tok.Text)
	}
	return ""
}

func (p *parser) expectKeyword(kw string) *selector.Error {
	if p.keyword() != kw {
		return p.Errorf("expected %s, found %q", kw, p.Tok.Text)
	}
	return p.Next()
}

func (p *parser) expectPunct(s string) *selector.Error {
	if !p.isOp(s) {
		return p.Errorf("expected %q, found %q", s, p.Tok.Text)
	}
	return p.Next()
}

// ident reads a name. A reserved word of the WHERE language is not one,
// so no table or column can be named that a WHERE clause could not name.
func (p *parser) ident() (string, *selector.Error) {
	if p.Tok.Kind != selector.TokIdent {
		return "", p.Errorf("expected identifier, found %q", p.Tok.Text)
	}
	name := p.Tok.Text
	return name, p.Next()
}

// Parse parses one SQL statement. An error is a *selector.Error whose
// offset points into src, wrapped so that errors.Is(err, ErrSyntax)
// holds.
func Parse(src string) (Stmt, error) {
	p := parser{selector.NewScanner(src, selector.SQL)}
	s, err := p.statement()
	if err != nil {
		return nil, fmt.Errorf("%w: %w", ErrSyntax, err)
	}
	return s, nil
}

func (p *parser) statement() (Stmt, *selector.Error) {
	if err := p.Next(); err != nil {
		return nil, err
	}
	var s Stmt
	var err *selector.Error
	switch p.keyword() {
	case "CREATE":
		s, err = p.parseCreate()
	case "INSERT":
		s, err = p.parseInsert()
	case "SELECT":
		s, err = p.parseSelect()
	default:
		return nil, p.Errorf("expected CREATE, INSERT or SELECT")
	}
	if err != nil {
		return nil, err
	}
	if p.Tok.Kind != selector.TokEOF {
		return nil, p.Errorf("trailing input %q", p.Tok.Text)
	}
	return s, nil
}

func (p *parser) parseCreate() (Stmt, *selector.Error) {
	if err := p.Next(); err != nil { // CREATE
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
		if p.Tok.Kind == selector.TokIdent && t.ColIndex(p.Tok.Text) >= 0 {
			return nil, p.Errorf("duplicate column %q", p.Tok.Text)
		}
		col, err := p.parseColumn()
		if err != nil {
			return nil, err
		}
		t.Columns = append(t.Columns, col)
		if !p.isOp(",") {
			break
		}
		if err := p.Next(); err != nil {
			return nil, err
		}
	}
	if err := p.expectPunct(")"); err != nil {
		return nil, err
	}
	return CreateTable{Table: t}, nil
}

func (p *parser) parseColumn() (Column, *selector.Error) {
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
		if err := p.Next(); err != nil {
			return Column{}, err
		}
		if p.keyword() != "PRECISION" {
			return Column{}, p.Errorf("expected PRECISION after DOUBLE")
		}
	case "CHAR", "VARCHAR":
		if p.keyword() == "CHAR" {
			col.Type = TChar
		} else {
			col.Type = TVarchar
		}
		if err := p.Next(); err != nil {
			return Column{}, err
		}
		if err := p.expectPunct("("); err != nil {
			return Column{}, err
		}
		if p.Tok.Kind != selector.TokInt {
			return Column{}, p.Errorf("expected length")
		}
		col.Len = int(p.Tok.Int)
		if err := p.Next(); err != nil {
			return Column{}, err
		}
		if err := p.expectPunct(")"); err != nil {
			return Column{}, err
		}
		goto modifiers
	default:
		return Column{}, p.Errorf("unknown column type %q", p.Tok.Text)
	}
	if err := p.Next(); err != nil {
		return Column{}, err
	}
modifiers:
	if p.keyword() == "PRIMARY" {
		if err := p.Next(); err != nil {
			return Column{}, err
		}
		if err := p.expectKeyword("KEY"); err != nil {
			return Column{}, err
		}
		col.Primary = true
	}
	return col, nil
}

func (p *parser) parseInsert() (Stmt, *selector.Error) {
	if err := p.Next(); err != nil { // INSERT
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
	if p.isOp("(") {
		if err := p.Next(); err != nil {
			return nil, err
		}
		for {
			col, err := p.ident()
			if err != nil {
				return nil, err
			}
			ins.Columns = append(ins.Columns, col)
			if !p.isOp(",") {
				break
			}
			if err := p.Next(); err != nil {
				return nil, err
			}
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
	ins.Values = make([]Value, 0, len(ins.Columns))
	for {
		v, err := p.parseLiteral()
		if err != nil {
			return nil, err
		}
		ins.Values = append(ins.Values, v)
		if !p.isOp(",") {
			break
		}
		if err := p.Next(); err != nil {
			return nil, err
		}
	}
	if p.isOp(")") && len(ins.Columns) > 0 && len(ins.Columns) != len(ins.Values) {
		return nil, p.Errorf("%d columns but %d values", len(ins.Columns), len(ins.Values))
	}
	if err := p.expectPunct(")"); err != nil {
		return nil, err
	}
	return ins, nil
}

func (p *parser) parseLiteral() (Value, *selector.Error) {
	neg := false
	if p.isOp("-") || p.isOp("+") {
		neg = p.Tok.Text == "-"
		if err := p.Next(); err != nil {
			return Value{}, err
		}
	}
	switch p.Tok.Kind {
	case selector.TokFloat:
		v := p.Tok.Float
		if neg {
			v = -v
		}
		return FloatV(v), p.Next()
	case selector.TokInt:
		v := p.Tok.Int
		if neg {
			v = -v
		}
		return IntV(v), p.Next()
	case selector.TokString:
		if neg {
			return Value{}, p.Errorf("negated string")
		}
		return StringV(p.Tok.Text), p.Next()
	case selector.TokKeyword:
		if p.Tok.Text != "NULL" {
			break
		}
		if neg {
			return Value{}, p.Errorf("negated NULL")
		}
		return Null(), p.Next()
	}
	return Value{}, p.Errorf("expected literal, found %q", p.Tok.Text)
}

func (p *parser) parseSelect() (Stmt, *selector.Error) {
	if err := p.Next(); err != nil { // SELECT
		return nil, err
	}
	sel := Select{}
	if p.isOp("*") {
		if err := p.Next(); err != nil {
			return nil, err
		}
	} else {
		for {
			col, err := p.ident()
			if err != nil {
				return nil, err
			}
			sel.Columns = append(sel.Columns, col)
			if !p.isOp(",") {
				break
			}
			if err := p.Next(); err != nil {
				return nil, err
			}
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
		if sel.Where, err = p.Predicate(); err != nil {
			return nil, err
		}
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
// cover every column in order. When the INSERT names no columns, or
// names every column in schema order, the returned row is ins.Values
// itself, not a copy: a caller must not change one while keeping the
// other.
func ReorderInsert(t *Table, ins Insert) (Row, error) {
	if len(ins.Columns) == 0 || inSchemaOrder(t, ins.Columns) {
		if len(ins.Values) != len(t.Columns) {
			return nil, fmt.Errorf("sqlmini: INSERT has %d values, table %s has %d columns", len(ins.Values), t.Name, len(t.Columns))
		}
		return ins.Values, CheckRow(t, ins.Values)
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

// inSchemaOrder reports whether cols names every column of t, in order.
func inSchemaOrder(t *Table, cols []string) bool {
	if len(cols) != len(t.Columns) {
		return false
	}
	for i, c := range t.Columns {
		if !strings.EqualFold(c.Name, cols[i]) {
			return false
		}
	}
	return true
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
