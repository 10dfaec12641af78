// Package expr provides the typed value model and scalar expression
// trees evaluated by the executor. Expressions are bound to positional
// column indexes before execution, so evaluation is allocation-free on
// the hot path.
package expr

import (
	"cmp"
	"fmt"
	"math"
	"strconv"
)

// Kind discriminates the runtime type of a Value.
type Kind int

const (
	// KindInt is a 64-bit integer value.
	KindInt Kind = iota
	// KindFloat is a 64-bit float value.
	KindFloat
	// KindString is a string value.
	KindString
	// KindNull is the SQL NULL value.
	KindNull
	// KindBool is a boolean value (result of predicates).
	KindBool
)

// Value is a dynamically typed scalar.
type Value struct {
	K Kind
	I int64
	F float64
	S string
	B bool
}

// Int returns an integer value.
func Int(i int64) Value { return Value{K: KindInt, I: i} }

// Float returns a float value.
func Float(f float64) Value { return Value{K: KindFloat, F: f} }

// Str returns a string value.
func Str(s string) Value { return Value{K: KindString, S: s} }

// Bool returns a boolean value.
func Bool(b bool) Value { return Value{K: KindBool, B: b} }

// Null is the SQL NULL value.
var Null = Value{K: KindNull}

// IsNull reports whether v is NULL.
func (v Value) IsNull() bool { return v.K == KindNull }

// Truthy reports whether v is a true boolean; NULL and non-bools are false.
func (v Value) Truthy() bool { return v.K == KindBool && v.B }

// String renders the value for traces and test failures.
func (v Value) String() string {
	switch v.K {
	case KindInt:
		return strconv.FormatInt(v.I, 10)
	case KindFloat:
		return strconv.FormatFloat(v.F, 'g', -1, 64)
	case KindString:
		return strconv.Quote(v.S)
	case KindBool:
		return strconv.FormatBool(v.B)
	case KindNull:
		return "NULL"
	default:
		return fmt.Sprintf("Value(kind=%d)", int(v.K))
	}
}

// Compare orders two values: -1, 0, +1. NULL sorts before everything.
// Numeric kinds compare exactly across int/float; NaN equals only NaN
// and sorts above every number, so numbers are totally ordered.
// Comparing a numeric with a string or bool panics, since the planner
// type-checks expressions before execution.
func Compare(a, b Value) int {
	if a.K == KindNull || b.K == KindNull {
		switch {
		case a.K == b.K:
			return 0
		case a.K == KindNull:
			return -1
		default:
			return 1
		}
	}
	switch {
	case a.K == KindString || b.K == KindString:
		if a.K != KindString || b.K != KindString {
			panic("expr: comparing string with non-string")
		}
		return cmp.Compare(a.S, b.S)
	case a.K == KindBool || b.K == KindBool:
		if a.K != KindBool || b.K != KindBool {
			panic("expr: comparing bool with non-bool")
		}
		switch {
		case !a.B && b.B:
			return -1
		case a.B && !b.B:
			return 1
		}
		return 0
	case a.K == KindFloat && b.K == KindFloat:
		return compareFloats(a.F, b.F)
	case a.K == KindFloat:
		return compareFloatInt(a.F, b.I)
	case b.K == KindFloat:
		return -compareFloatInt(b.F, a.I)
	}
	return cmp.Compare(a.I, b.I)
}

// compareFloats orders two floats with NaN equal to NaN and above every
// number.
func compareFloats(a, b float64) int {
	switch {
	case a != a && b != b:
		return 0
	case a != a:
		return 1
	case b != b:
		return -1
	}
	return cmp.Compare(a, b)
}

// compareFloatInt compares f with i exactly, with NaN above every
// number: converting i to float64 would round above 2^53.
func compareFloatInt(f float64, i int64) int {
	switch {
	case f != f || f >= 1<<63:
		return 1
	case f < -1<<63:
		return -1
	}
	t := math.Trunc(f) // in int64 range, so int64(t) is exact
	if c := cmp.Compare(int64(t), i); c != 0 {
		return c
	}
	return cmp.Compare(f, t)
}

// Equal reports value equality under Compare semantics; NULL equals
// nothing, not even NULL (SQL three-valued logic collapsed to false).
func Equal(a, b Value) bool {
	if a.K == KindNull || b.K == KindNull {
		return false
	}
	return Compare(a, b) == 0
}
