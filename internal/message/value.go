// Package message implements a JMS 1.1-style message model: typed property
// values, message headers, and the five JMS body types. NaradaBrokering is
// "fully compliant with JMS"; the paper's workload wraps each monitoring
// sample (two int, five float, two long, three double and four string
// values) in a JMS MapMessage, so the model here is faithful to the JMS
// spec where the paper exercises it.
//
// A message's properties and map entries are each one insertion-ordered
// slice of Entry, scanned by name; a table past 32 entries adds a name
// index. Received messages are read-only: the wire codec decodes a
// message into one private copy of its bytes and hands it over frozen,
// with every string and byte payload a view of that copy. A field view
// therefore retains the whole message buffer for as long as it is held.
package message

import (
	"errors"
	"fmt"
	"math"
	"strconv"
)

// Kind enumerates the JMS primitive property/body value types.
type Kind uint8

// Value kinds, mirroring the JMS typed-value system.
const (
	KindNull Kind = iota
	KindBool
	KindByte
	KindShort
	KindInt
	KindLong
	KindFloat
	KindDouble
	KindString
	KindBytes
)

var kindNames = [...]string{"null", "bool", "byte", "short", "int", "long", "float", "double", "string", "bytes"}

func (k Kind) String() string {
	if int(k) < len(kindNames) {
		return kindNames[k]
	}
	return fmt.Sprintf("kind(%d)", uint8(k))
}

// ErrConversion is wrapped by all failed value conversions, matching the
// JMS MessageFormatException cases.
var ErrConversion = errors.New("message: unsupported value conversion")

// Value is a typed JMS value. The zero Value is the JMS null.
type Value struct {
	kind Kind
	num  uint64 // bits of the numeric/bool payload
	str  string
	buf  []byte
}

// Constructors for each JMS type.

// Null returns the JMS null value.
func Null() Value { return Value{} }

// Bool wraps a boolean.
func Bool(b bool) Value {
	var n uint64
	if b {
		n = 1
	}
	return Value{kind: KindBool, num: n}
}

// Byte wraps a signed 8-bit integer.
func Byte(v int8) Value { return Value{kind: KindByte, num: uint64(v)} }

// Short wraps a signed 16-bit integer.
func Short(v int16) Value { return Value{kind: KindShort, num: uint64(v)} }

// Int wraps a signed 32-bit integer.
func Int(v int32) Value { return Value{kind: KindInt, num: uint64(v)} }

// Long wraps a signed 64-bit integer.
func Long(v int64) Value { return Value{kind: KindLong, num: uint64(v)} }

// Float wraps a 32-bit float.
func Float(v float32) Value { return Value{kind: KindFloat, num: uint64(math.Float32bits(v))} }

// Double wraps a 64-bit float.
func Double(v float64) Value { return Value{kind: KindDouble, num: math.Float64bits(v)} }

// String wraps a string.
func String(s string) Value { return Value{kind: KindString, str: s} }

// Bytes wraps a byte slice. The slice is not copied.
func Bytes(b []byte) Value { return Value{kind: KindBytes, buf: b} }

// Kind reports the value's type.
func (v Value) Kind() Kind { return v.kind }

// IsNull reports whether the value is JMS null.
func (v Value) IsNull() bool { return v.kind == KindNull }

// IsNumeric reports whether the value is one of the numeric kinds.
func (v Value) IsNumeric() bool {
	switch v.kind {
	case KindByte, KindShort, KindInt, KindLong, KindFloat, KindDouble:
		return true
	}
	return false
}

// IsIntegral reports whether the value is an integer kind.
func (v Value) IsIntegral() bool {
	switch v.kind {
	case KindByte, KindShort, KindInt, KindLong:
		return true
	}
	return false
}

// Raw exposes the value's kind together with its raw numeric bits and
// string payload, without conversion checks or error plumbing. Integer
// kinds are stored sign-extended, so int64(num) recovers them; float
// kinds hold their IEEE bits (32-bit for KindFloat). Hot-path evaluators
// (the selector stack machine) use this to avoid the As* conversion
// switches per property access.
func (v Value) Raw() (kind Kind, num uint64, str string) {
	return v.kind, v.num, v.str
}

// rawInt returns the signed integer payload without conversion checks.
func (v Value) rawInt() int64 {
	switch v.kind {
	case KindByte:
		return int64(int8(v.num))
	case KindShort:
		return int64(int16(v.num))
	case KindInt:
		return int64(int32(v.num))
	default:
		return int64(v.num)
	}
}

// rawFloat returns the floating payload without conversion checks.
func (v Value) rawFloat() float64 {
	if v.kind == KindFloat {
		return float64(math.Float32frombits(uint32(v.num)))
	}
	return math.Float64frombits(v.num)
}

// AsBool converts following the JMS conversion table: booleans convert
// directly and strings are parsed; everything else fails.
func (v Value) AsBool() (bool, error) {
	switch v.kind {
	case KindBool:
		return v.num != 0, nil
	case KindString:
		b, err := strconv.ParseBool(v.str)
		if err != nil {
			return false, fmt.Errorf("%w: %q to bool", ErrConversion, v.str)
		}
		return b, nil
	}
	return false, fmt.Errorf("%w: %v to bool", ErrConversion, v.kind)
}

// AsLong converts integral kinds and numeric strings to int64. Floats do
// not convert to integers in JMS.
func (v Value) AsLong() (int64, error) {
	switch v.kind {
	case KindByte, KindShort, KindInt, KindLong:
		return v.rawInt(), nil
	case KindString:
		n, err := strconv.ParseInt(v.str, 10, 64)
		if err != nil {
			return 0, fmt.Errorf("%w: %q to long", ErrConversion, v.str)
		}
		return n, nil
	}
	return 0, fmt.Errorf("%w: %v to long", ErrConversion, v.kind)
}

// AsDouble converts any numeric kind or numeric string to float64.
func (v Value) AsDouble() (float64, error) {
	switch v.kind {
	case KindByte, KindShort, KindInt, KindLong:
		return float64(v.rawInt()), nil
	case KindFloat, KindDouble:
		return v.rawFloat(), nil
	case KindString:
		f, err := strconv.ParseFloat(v.str, 64)
		if err != nil {
			return 0, fmt.Errorf("%w: %q to double", ErrConversion, v.str)
		}
		return f, nil
	}
	return 0, fmt.Errorf("%w: %v to double", ErrConversion, v.kind)
}

// AsString renders any value as a string (every JMS type converts to
// String except bytes, which JMS also allows but without interpretation).
func (v Value) AsString() string {
	switch v.kind {
	case KindNull:
		return ""
	case KindBool:
		return strconv.FormatBool(v.num != 0)
	case KindByte, KindShort, KindInt, KindLong:
		return strconv.FormatInt(v.rawInt(), 10)
	case KindFloat:
		return strconv.FormatFloat(v.rawFloat(), 'g', -1, 32)
	case KindDouble:
		return strconv.FormatFloat(v.rawFloat(), 'g', -1, 64)
	case KindString:
		return v.str
	case KindBytes:
		return fmt.Sprintf("%x", v.buf)
	}
	return ""
}

// AsBytes returns the byte payload for bytes values.
func (v Value) AsBytes() ([]byte, error) {
	if v.kind != KindBytes {
		return nil, fmt.Errorf("%w: %v to bytes", ErrConversion, v.kind)
	}
	return v.buf, nil
}

// Equal reports deep equality of two values (kind and payload).
func (v Value) Equal(o Value) bool {
	if v.kind != o.kind {
		return false
	}
	switch v.kind {
	case KindString:
		return v.str == o.str
	case KindBytes:
		if len(v.buf) != len(o.buf) {
			return false
		}
		for i := range v.buf {
			if v.buf[i] != o.buf[i] {
				return false
			}
		}
		return true
	default:
		return v.num == o.num
	}
}

// String implements fmt.Stringer with the kind annotation, for debugging.
func (v Value) String() string {
	if v.kind == KindNull {
		return "null"
	}
	return fmt.Sprintf("%s(%s)", v.kind, v.AsString())
}

// EncodedSize reports the number of bytes the wire codec uses for the
// value: a one-byte kind tag plus the payload.
func (v Value) EncodedSize() int {
	switch v.kind {
	case KindNull:
		return 1
	case KindBool, KindByte:
		return 2
	case KindShort:
		return 3
	case KindInt, KindFloat:
		return 5
	case KindLong, KindDouble:
		return 9
	case KindString:
		return 1 + 4 + len(v.str)
	case KindBytes:
		return 1 + 4 + len(v.buf)
	}
	return 1
}
