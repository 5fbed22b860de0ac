package selector

import (
	"strings"
	"testing"
	"testing/quick"

	"gridmon/internal/message"
)

// msg builds a message with a representative property set.
func msg() *message.Message {
	m := message.NewMap()
	m.ID = "ID:42"
	m.Priority = 6
	m.Timestamp = 1000
	m.Type = "telemetry"
	m.SetProperty("id", message.Int(1234))
	m.SetProperty("power", message.Double(1.5))
	m.SetProperty("rate", message.Float(0.25))
	m.SetProperty("count", message.Long(9))
	m.SetProperty("site", message.String("aberdeen-07"))
	m.SetProperty("status", message.String("RUNNING"))
	m.SetProperty("active", message.Bool(true))
	m.SetProperty("nothing", message.Null())
	return m
}

func evalOn(t *testing.T, expr string) Tri {
	t.Helper()
	s, err := Parse(expr)
	if err != nil {
		t.Fatalf("Parse(%q): %v", expr, err)
	}
	return s.Eval(msg())
}

func TestPaperSelector(t *testing.T) {
	// The exact selector the paper's subscribers use: "id<10000". It must
	// match every generated message (it "did not filter out any data").
	s := MustParse("id<10000")
	if !s.Matches(msg()) {
		t.Fatal("paper selector rejected a monitoring message")
	}
}

func TestComparisonsTrue(t *testing.T) {
	for _, expr := range []string{
		"id = 1234",
		"id <> 1",
		"id < 10000",
		"id <= 1234",
		"id > 0",
		"id >= 1234",
		"power > 1.0",
		"power = 1.5",
		"rate < 0.5",
		"count = 9",
		"site = 'aberdeen-07'",
		"status <> 'STOPPED'",
		"active = TRUE",
		"active <> FALSE",
		"JMSPriority >= 5",
		"JMSType = 'telemetry'",
		"JMSTimestamp = 1000",
		"JMSMessageID = 'ID:42'",
	} {
		if got := evalOn(t, expr); got != TriTrue {
			t.Errorf("%q = %v, want true", expr, got)
		}
	}
}

func TestComparisonsFalse(t *testing.T) {
	for _, expr := range []string{
		"id = 1",
		"id > 10000",
		"site = 'cardiff'",
		"active = FALSE",
		"power < 1",
	} {
		if got := evalOn(t, expr); got != TriFalse {
			t.Errorf("%q = %v, want false", expr, got)
		}
	}
}

func TestArithmetic(t *testing.T) {
	for _, expr := range []string{
		"id + 1 = 1235",
		"id - 34 = 1200",
		"id * 2 = 2468",
		"id / 2 = 617",
		"power * 2 = 3.0",
		"-id = -1234",
		"+id = 1234",
		"2 + 3 * 4 = 14",    // precedence
		"(2 + 3) * 4 = 20",  // parentheses
		"10 / 4 = 2",        // integer division
		"10.0 / 4 = 2.5",    // float division
		"id + power > 1235", // mixed promotes to double
	} {
		if got := evalOn(t, expr); got != TriTrue {
			t.Errorf("%q = %v, want true", expr, got)
		}
	}
}

func TestDivisionByZero(t *testing.T) {
	// Integer division by zero yields null -> unknown.
	if got := evalOn(t, "id / 0 = 5"); got != TriUnknown {
		t.Errorf("int div by zero = %v, want unknown", got)
	}
	// Float division by zero follows IEEE (+Inf > anything finite).
	if got := evalOn(t, "power / 0.0 > 1000000"); got != TriTrue {
		t.Errorf("float div by zero = %v, want true", got)
	}
}

func TestBooleanLogic(t *testing.T) {
	for _, c := range []struct {
		expr string
		want Tri
	}{
		{"id < 10000 AND power > 1", TriTrue},
		{"id < 10000 AND power < 1", TriFalse},
		{"id > 10000 OR power > 1", TriTrue},
		{"id > 10000 OR power < 1", TriFalse},
		{"NOT id > 10000", TriTrue},
		{"NOT active", TriFalse},
		{"active AND NOT (site = 'cardiff')", TriTrue},
		{"id < 10000 AND id > 1000 AND power = 1.5", TriTrue},
	} {
		if got := evalOn(t, c.expr); got != c.want {
			t.Errorf("%q = %v, want %v", c.expr, got, c.want)
		}
	}
}

func TestThreeValuedLogicWithNull(t *testing.T) {
	// missing and nothing are null; JMS three-valued logic applies.
	for _, c := range []struct {
		expr string
		want Tri
	}{
		{"missing = 1", TriUnknown},
		{"nothing = 1", TriUnknown},
		{"missing = 1 AND active", TriUnknown},
		{"missing = 1 AND id > 10000", TriFalse},  // F AND U = F
		{"missing = 1 OR active", TriTrue},        // U OR T = T
		{"missing = 1 OR id > 10000", TriUnknown}, // U OR F = U
		{"NOT (missing = 1)", TriUnknown},
		{"missing IS NULL", TriTrue},
		{"missing IS NOT NULL", TriFalse},
		{"id IS NULL", TriFalse},
		{"id IS NOT NULL", TriTrue},
		{"nothing IS NULL", TriTrue},
	} {
		if got := evalOn(t, c.expr); got != c.want {
			t.Errorf("%q = %v, want %v", c.expr, got, c.want)
		}
	}
}

func TestBetween(t *testing.T) {
	for _, c := range []struct {
		expr string
		want Tri
	}{
		{"id BETWEEN 1000 AND 2000", TriTrue},
		{"id BETWEEN 1234 AND 1234", TriTrue},
		{"id BETWEEN 0 AND 100", TriFalse},
		{"id NOT BETWEEN 0 AND 100", TriTrue},
		{"power BETWEEN 1 AND 2", TriTrue},
		{"power BETWEEN 1.6 AND 2", TriFalse},
		{"missing BETWEEN 1 AND 2", TriUnknown},
		{"site BETWEEN 1 AND 2", TriUnknown}, // string is not numeric
	} {
		if got := evalOn(t, c.expr); got != c.want {
			t.Errorf("%q = %v, want %v", c.expr, got, c.want)
		}
	}
}

func TestIn(t *testing.T) {
	for _, c := range []struct {
		expr string
		want Tri
	}{
		{"status IN ('RUNNING', 'STARTING')", TriTrue},
		{"status IN ('STOPPED')", TriFalse},
		{"status NOT IN ('STOPPED')", TriTrue},
		{"missing IN ('x')", TriUnknown},
		{"id IN ('1234')", TriUnknown}, // IN applies to strings only
	} {
		if got := evalOn(t, c.expr); got != c.want {
			t.Errorf("%q = %v, want %v", c.expr, got, c.want)
		}
	}
}

func TestLike(t *testing.T) {
	for _, c := range []struct {
		expr string
		want Tri
	}{
		{"site LIKE 'aberdeen%'", TriTrue},
		{"site LIKE '%07'", TriTrue},
		{"site LIKE '%deen%'", TriTrue},
		{"site LIKE 'aberdeen-__'", TriTrue},
		{"site LIKE 'aberdeen-_'", TriFalse},
		{"site LIKE 'cardiff%'", TriFalse},
		{"site NOT LIKE 'cardiff%'", TriTrue},
		{"site LIKE 'aberdeen-07'", TriTrue},
		{"site LIKE '%'", TriTrue},
		{"missing LIKE '%'", TriUnknown},
		{"status LIKE 'RUN!%ING' ESCAPE '!'", TriFalse}, // literal % required
		{"status LIKE 'RUN%'", TriTrue},
	} {
		if got := evalOn(t, c.expr); got != c.want {
			t.Errorf("%q = %v, want %v", c.expr, got, c.want)
		}
	}
}

func TestLikeEscapeMatchesLiteralPercent(t *testing.T) {
	m := message.New()
	m.SetProperty("s", message.String("100%"))
	sel := MustParse("s LIKE '100!%' ESCAPE '!'")
	if !sel.Matches(m) {
		t.Fatal("escaped %% did not match literal")
	}
	sel2 := MustParse("s LIKE '1__!%' ESCAPE '!'")
	if !sel2.Matches(m) {
		t.Fatal("mixed escape pattern failed")
	}
}

func TestStringOrderingIsUnknown(t *testing.T) {
	// JMS permits only = and <> on strings.
	if got := evalOn(t, "site > 'a'"); got != TriUnknown {
		t.Errorf("string ordering = %v, want unknown", got)
	}
	if got := evalOn(t, "active > FALSE"); got != TriUnknown {
		t.Errorf("bool ordering = %v, want unknown", got)
	}
}

func TestTypeMismatchIsUnknown(t *testing.T) {
	for _, expr := range []string{
		"site = 5",
		"id = 'x'",
		"active = 1",
	} {
		if got := evalOn(t, expr); got != TriUnknown {
			t.Errorf("%q = %v, want unknown", expr, got)
		}
	}
}

func TestEmptySelectorMatchesAll(t *testing.T) {
	for _, src := range []string{"", "   ", "\t\n"} {
		s, err := Parse(src)
		if err != nil {
			t.Fatalf("Parse(%q): %v", src, err)
		}
		if !s.Matches(msg()) {
			t.Fatalf("empty selector %q rejected message", src)
		}
	}
	var nilSel *Selector
	if !nilSel.Matches(msg()) || nilSel.Eval(msg()) != TriTrue || nilSel.String() != "" {
		t.Fatal("nil selector misbehaves")
	}
}

func TestParseErrors(t *testing.T) {
	for _, src := range []string{
		"id <",
		"id < < 5",
		"(id < 5",
		"id BETWEEN 1",
		"id BETWEEN 1 OR 2",
		"5 IN ('a')",
		"5 LIKE 'a'",
		"site LIKE 5",
		"site LIKE 'a' ESCAPE 'ab'",
		"site LIKE 'a!' ESCAPE '!'",
		"id IN (5)",
		"id IN ()",
		"5 IS NULL",
		"id IS 5",
		"NOT",
		"id NOT 5",
		"AND id",
		"id @ 5",
		"'unterminated",
		"id < 1e",
		"id = 5 extra",
		"JMSDestination = 'x'", // not a selectable header
		"JMSRedelivered",       // not selectable per JMS §3.8.1.1
	} {
		if _, err := Parse(src); err == nil {
			t.Errorf("Parse(%q) succeeded, want error", src)
		}
	}
}

func TestErrorHasPositionAndExpr(t *testing.T) {
	_, err := Parse("id << 5")
	if err == nil {
		t.Fatal("expected error")
	}
	e, ok := err.(*Error)
	if !ok {
		t.Fatalf("error type %T", err)
	}
	if e.Expr != "id << 5" || !strings.Contains(e.Error(), "offset") {
		t.Fatalf("error = %v", e)
	}
}

func TestCaseInsensitiveKeywords(t *testing.T) {
	for _, expr := range []string{
		"id < 10000 and power > 1",
		"id < 10000 Or power < 1",
		"not (id > 10000)",
		"site like 'aber%'",
		"status in ('RUNNING')",
		"missing is null",
		"id between 1 and 10000",
	} {
		if got := evalOn(t, expr); got != TriTrue {
			t.Errorf("%q = %v, want true", expr, got)
		}
	}
}

func TestIdentifierCaseSensitive(t *testing.T) {
	// JMS identifiers are case sensitive: "ID" is not "id".
	if got := evalOn(t, "ID < 10000"); got != TriUnknown {
		t.Errorf("wrong-case identifier = %v, want unknown", got)
	}
}

func TestStringLiteralQuoteEscape(t *testing.T) {
	m := message.New()
	m.SetProperty("s", message.String("it's"))
	if !MustParse("s = 'it''s'").Matches(m) {
		t.Fatal("doubled quote escape failed")
	}
}

func TestNumericLiterals(t *testing.T) {
	for _, expr := range []string{
		"id = 1234",
		"power = 1.5",
		"power = 15e-1",
		"power = 0.15E1",
		"power > .5",
	} {
		if got := evalOn(t, expr); got != TriTrue {
			t.Errorf("%q = %v, want true", expr, got)
		}
	}
}

func TestSelectorString(t *testing.T) {
	src := "id < 10000"
	if MustParse(src).String() != src {
		t.Fatal("String() should return source")
	}
}

func TestMustParsePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("MustParse on bad input did not panic")
		}
	}()
	MustParse("id <")
}

func TestHeaderPrecedenceOverProperty(t *testing.T) {
	m := message.New()
	m.Priority = 9
	m.SetProperty("JMSPriority", message.Int(1))
	if !MustParse("JMSPriority = 9").Matches(m) {
		t.Fatal("header did not take precedence")
	}
}

// Property: "id<N" matches exactly when id < N, over the full int32 range.
func TestPropertyThresholdSelector(t *testing.T) {
	sel := MustParse("id < 10000")
	f := func(id int32) bool {
		m := message.New()
		m.SetProperty("id", message.Int(id))
		return sel.Matches(m) == (id < 10000)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
}

// Property: BETWEEN lo AND hi agrees with the two-comparison expansion.
func TestPropertyBetweenEquivalence(t *testing.T) {
	f := func(v, lo, hi int16) bool {
		m := message.New()
		m.SetProperty("x", message.Int(int32(v)))
		between := MustParse("x BETWEEN " + itoa(int64(lo)) + " AND " + itoa(int64(hi)))
		expanded := MustParse("x >= " + itoa(int64(lo)) + " AND x <= " + itoa(int64(hi)))
		return between.Eval(m) == expanded.Eval(m)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

// Property: LIKE with no wildcards is equality.
func TestPropertyLikeLiteralIsEquality(t *testing.T) {
	f := func(s string) bool {
		// Restrict to pattern-safe strings (no wildcards or quotes).
		if strings.ContainsAny(s, "%_'") {
			return true
		}
		m := message.New()
		m.SetProperty("s", message.String(s))
		sel, err := Parse("s LIKE '" + s + "'")
		if err != nil {
			return false
		}
		return sel.Matches(m)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

// Property: NOT is an involution on definite results.
func TestPropertyDoubleNegation(t *testing.T) {
	f := func(id int32) bool {
		m := message.New()
		m.SetProperty("id", message.Int(id))
		pos := MustParse("id < 0")
		neg := MustParse("NOT NOT id < 0")
		return pos.Eval(m) == neg.Eval(m)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func itoa(n int64) string {
	if n < 0 {
		return "-" + itoa(-n)
	}
	if n < 10 {
		return string(rune('0' + n))
	}
	return itoa(n/10) + string(rune('0'+n%10))
}

func BenchmarkParsePaperSelector(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := Parse("id<10000"); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkEvalPaperSelector(b *testing.B) {
	sel := MustParse("id<10000")
	m := msg()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if !sel.Matches(m) {
			b.Fatal("no match")
		}
	}
}

func BenchmarkEvalComplexSelector(b *testing.B) {
	sel := MustParse("id < 10000 AND site LIKE 'aber%' AND power BETWEEN 1 AND 2 AND status IN ('RUNNING','STARTING')")
	m := msg()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		sel.Matches(m)
	}
}
