package expr

import (
	"math"
	"testing"
	"testing/quick"
)

func TestValueConstructorsAndString(t *testing.T) {
	cases := []struct {
		v    Value
		want string
	}{
		{Int(42), "42"},
		{Float(2.5), "2.5"},
		{Str("hi"), `"hi"`},
		{Bool(true), "true"},
		{Null, "NULL"},
		{Value{K: Kind(99)}, "Value(kind=99)"},
	}
	for _, c := range cases {
		if got := c.v.String(); got != c.want {
			t.Errorf("%#v.String() = %q, want %q", c.v, got, c.want)
		}
	}
}

func TestCompareInts(t *testing.T) {
	if Compare(Int(1), Int(2)) != -1 || Compare(Int(2), Int(1)) != 1 || Compare(Int(3), Int(3)) != 0 {
		t.Fatal("int comparison broken")
	}
}

// Ints and floats compare exactly, not through float64, and NaN equals
// only NaN, above every number (+Inf and MaxInt64 included).
func TestCompareMixedNumeric(t *testing.T) {
	nan, inf := Float(math.NaN()), Float(math.Inf(1))
	for _, c := range []struct {
		a, b Value
		want int
	}{
		{Int(1), Float(1.5), -1},
		{Float(2.0), Int(2), 0},
		{Float(3.5), Int(3), 1},
		{Float(1 << 53), Int(1<<53 + 1), -1},
		{Int(math.MaxInt64), Float(1 << 63), -1},
		{Int(math.MinInt64), Float(-1 << 63), 0},
		{Float(-0.5), Int(0), -1},
		{Float(-1.5), Int(-1), -1},
		{nan, Int(7), 1},
		{nan, Int(math.MaxInt64), 1},
		{nan, inf, 1},
		{nan, Float(math.Float64frombits(0x7ff8000000000002)), 0},
		{inf, Int(math.MaxInt64), 1},
	} {
		if got := Compare(c.a, c.b); got != c.want {
			t.Errorf("Compare(%v, %v) = %d, want %d", c.a, c.b, got, c.want)
		}
		if got := Compare(c.b, c.a); got != -c.want {
			t.Errorf("Compare(%v, %v) = %d, want %d", c.b, c.a, got, -c.want)
		}
	}
	if Equal(nan, Int(7)) || !Equal(nan, nan) {
		t.Error("NaN must equal only NaN")
	}
}

func TestCompareStringsAndBools(t *testing.T) {
	if Compare(Str("a"), Str("b")) != -1 || Compare(Str("b"), Str("a")) != 1 || Compare(Str("a"), Str("a")) != 0 {
		t.Error("string comparison broken")
	}
	if Compare(Bool(false), Bool(true)) != -1 || Compare(Bool(true), Bool(false)) != 1 || Compare(Bool(true), Bool(true)) != 0 {
		t.Error("bool comparison broken")
	}
}

func TestCompareNulls(t *testing.T) {
	if Compare(Null, Int(0)) != -1 || Compare(Int(0), Null) != 1 || Compare(Null, Null) != 0 {
		t.Error("NULL ordering broken")
	}
}

func TestCompareTypeMismatchPanics(t *testing.T) {
	for _, pair := range [][2]Value{
		{Str("x"), Int(1)},
		{Bool(true), Int(1)},
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("Compare(%v,%v) should panic", pair[0], pair[1])
				}
			}()
			Compare(pair[0], pair[1])
		}()
	}
}

func TestEqualNullSemantics(t *testing.T) {
	if Equal(Null, Null) {
		t.Error("NULL = NULL must be false")
	}
	if !Equal(Int(7), Int(7)) || Equal(Int(7), Int(8)) {
		t.Error("int equality broken")
	}
}

func TestCompareAntisymmetryProperty(t *testing.T) {
	f := func(a, b int64) bool {
		return Compare(Int(a), Int(b)) == -Compare(Int(b), Int(a))
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestCompareTransitivityProperty(t *testing.T) {
	f := func(a, b, c int64) bool {
		x, y, z := Int(a), Int(b), Int(c)
		if Compare(x, y) <= 0 && Compare(y, z) <= 0 {
			return Compare(x, z) <= 0
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func row(vs ...Value) Row { return Row(vs) }

func TestColRefAndConst(t *testing.T) {
	r := row(Int(10), Str("x"))
	c := &ColRef{Idx: 0, Name: "t.a"}
	if got := c.Eval(r); got.I != 10 {
		t.Errorf("ColRef eval = %v", got)
	}
	if c.String() != "t.a" {
		t.Errorf("ColRef display = %q", c.String())
	}
	anon := &ColRef{Idx: 1}
	if anon.String() != "$1" {
		t.Errorf("anonymous ColRef display = %q", anon.String())
	}
	k := &Const{Val: Int(5)}
	if k.Eval(r).I != 5 || k.String() != "5" {
		t.Error("Const broken")
	}
}

func TestCmpOperators(t *testing.T) {
	r := row(Int(5))
	col := &ColRef{Idx: 0, Name: "v"}
	cases := []struct {
		op   CmpOp
		rhs  int64
		want bool
	}{
		{EQ, 5, true}, {EQ, 6, false},
		{NE, 5, false}, {NE, 6, true},
		{LT, 6, true}, {LT, 5, false},
		{LE, 5, true}, {LE, 4, false},
		{GT, 4, true}, {GT, 5, false},
		{GE, 5, true}, {GE, 6, false},
	}
	for _, c := range cases {
		e := &Cmp{Op: c.op, L: col, R: &Const{Val: Int(c.rhs)}}
		if got := e.Eval(r).Truthy(); got != c.want {
			t.Errorf("5 %s %d = %v, want %v", c.op, c.rhs, got, c.want)
		}
	}
}

func TestCmpWithNullIsFalse(t *testing.T) {
	r := row(Null)
	e := &Cmp{Op: EQ, L: &ColRef{Idx: 0}, R: &Const{Val: Int(1)}}
	if e.Eval(r).Truthy() {
		t.Error("NULL = 1 must be false")
	}
}

func TestCmpOpString(t *testing.T) {
	wants := map[CmpOp]string{EQ: "=", NE: "<>", LT: "<", LE: "<=", GT: ">", GE: ">="}
	for op, w := range wants {
		if op.String() != w {
			t.Errorf("%d.String() = %q want %q", int(op), op.String(), w)
		}
	}
	if CmpOp(42).String() != "CmpOp(42)" {
		t.Error("unknown op display broken")
	}
}

func TestAndOrNot(t *testing.T) {
	tr := &Const{Val: Bool(true)}
	fa := &Const{Val: Bool(false)}
	r := row()
	if !(&And{Args: []Expr{tr, tr}}).Eval(r).Truthy() {
		t.Error("true AND true")
	}
	if (&And{Args: []Expr{tr, fa}}).Eval(r).Truthy() {
		t.Error("true AND false")
	}
	if !(&And{}).Eval(r).Truthy() {
		t.Error("empty AND should be true")
	}
	if !(&Or{Args: []Expr{fa, tr}}).Eval(r).Truthy() {
		t.Error("false OR true")
	}
	if (&Or{}).Eval(r).Truthy() {
		t.Error("empty OR should be false")
	}
	if (&Not{Arg: tr}).Eval(r).Truthy() {
		t.Error("NOT true")
	}
	if !(&Not{Arg: fa}).Eval(r).Truthy() {
		t.Error("NOT false")
	}
}

func TestExprStrings(t *testing.T) {
	e := &And{Args: []Expr{
		&Cmp{Op: LT, L: &ColRef{Idx: 0, Name: "a"}, R: &Const{Val: Int(3)}},
		&Or{Args: []Expr{
			&Cmp{Op: EQ, L: &ColRef{Idx: 1, Name: "b"}, R: &Const{Val: Int(1)}},
		}},
	}}
	want := "(a < 3) AND ((b = 1))"
	if got := e.String(); got != want {
		t.Errorf("And.String() = %q, want %q", got, want)
	}
	n := &Not{Arg: &Cmp{Op: GE, L: &ColRef{Idx: 0, Name: "a"}, R: &Const{Val: Int(0)}}}
	if n.String() != "NOT (a >= 0)" {
		t.Errorf("Not.String() = %q", n.String())
	}
}

func TestConjoin(t *testing.T) {
	if Conjoin() != nil || Conjoin(nil, nil) != nil {
		t.Error("Conjoin of nothing should be nil")
	}
	single := &Const{Val: Bool(true)}
	if Conjoin(nil, single) != Expr(single) {
		t.Error("Conjoin of one expr should be the expr itself")
	}
	two := Conjoin(single, &Const{Val: Bool(false)})
	if _, ok := two.(*And); !ok {
		t.Errorf("Conjoin of two = %T, want *And", two)
	}
	if two.Eval(row()).Truthy() {
		t.Error("true AND false should be false")
	}
}

func TestTruthyOnNonBool(t *testing.T) {
	if Int(1).Truthy() || Null.Truthy() || Str("t").Truthy() {
		t.Error("only KindBool true values are truthy")
	}
}
