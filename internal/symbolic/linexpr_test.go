package symbolic

import (
	"testing"

	"repro/internal/minic/types"
)

func TestLinExprOps(t *testing.T) {
	a := &types.Object{Name: "a"}
	b := &types.Object{Name: "b"}

	l := NewLin(5)
	if !l.IsConst() || l.String() != "5" {
		t.Fatalf("const: %s", l)
	}
	l.Terms[a] = 2
	l.Terms[b] = -1
	if l.IsConst() {
		t.Error("not const with terms")
	}
	if got := l.String(); got != "2*a + -b + 5" {
		t.Errorf("string %q", got)
	}

	m := NewLin(1)
	m.Terms[a] = 3
	l.addScaled(m, 2) // l = 2a - b + 5 + 2(3a + 1) = 8a - b + 7
	if l.Terms[a] != 8 || l.Terms[b] != -1 || l.Const != 7 {
		t.Errorf("addScaled: %s", l)
	}

	l.scale(-1)
	if l.Terms[a] != -8 || l.Const != -7 {
		t.Errorf("scale: %s", l)
	}

	// Terms cancelling to zero are dropped.
	n := NewLin(0)
	n.Terms[a] = 4
	p := NewLin(0)
	p.Terms[a] = -4
	n.addScaled(p, 1)
	if len(n.Terms) != 0 {
		t.Errorf("cancelled term retained: %s", n)
	}

	// Coefficient 1 prints bare; clone is independent.
	q := NewLin(0)
	q.Terms[a] = 1
	if q.String() != "a" {
		t.Errorf("unit coefficient: %q", q.String())
	}
	c := q.clone()
	c.Terms[a] = 9
	if q.Terms[a] != 1 {
		t.Error("clone aliases original")
	}
}

func TestBoundsString(t *testing.T) {
	b := InfBounds(1, nil, "index not affine")
	if got := b.String(); got != "[-INF, +INF] (index not affine)" {
		t.Errorf("inf bounds: %q", got)
	}
}

func TestSubstExtreme(t *testing.T) {
	v := &types.Object{Name: "v"}
	inv := &types.Object{Name: "n"}
	// l = 3v + n + 1; v in [lo=2, hi=n-1]
	l := NewLin(1)
	l.Terms[v] = 3
	l.Terms[inv] = 1
	lo := NewLin(2)
	hi := NewLin(-1)
	hi.Terms[inv] = 1

	max := substExtreme(l, v, lo, hi, true)
	// max: v -> n-1: 3(n-1) + n + 1 = 4n - 2
	if max.Terms[inv] != 4 || max.Const != -2 {
		t.Errorf("max: %s", max)
	}
	min := substExtreme(l, v, lo, hi, false)
	// min: v -> 2: 6 + n + 1 = n + 7
	if min.Terms[inv] != 1 || min.Const != 7 {
		t.Errorf("min: %s", min)
	}

	// Negative coefficient flips the pick.
	l2 := NewLin(0)
	l2.Terms[v] = -2
	max2 := substExtreme(l2, v, lo, hi, true)
	// max of -2v: v -> lo=2: -4
	if max2.Const != -4 || len(max2.Terms) != 0 {
		t.Errorf("neg max: %s", max2)
	}

	// Variable absent: unchanged.
	l3 := NewLin(9)
	if got := substExtreme(l3, v, lo, hi, true); got.Const != 9 {
		t.Errorf("absent var: %s", got)
	}
}
