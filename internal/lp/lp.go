// Package lp implements a small exact linear-programming solver: two-phase
// primal simplex over arbitrary-precision rationals with Bland's rule (so
// it cannot cycle). It stands in for the lpsolve MILP solver the paper's
// symbolic bounds implementation called out to (paper §6.1: "we used
// lpsolve, a mixed integer linear programming solver, to find a solution
// for static bounds that a racy loop may access").
//
// The problems the symbolic bounds analysis produces are tiny — a handful
// of variables (loop indices) and constraints (loop bounds, guards) — so a
// dense exact tableau is both simple and fast, and exactness matters: a
// rounded bound could under-approximate an address range and break the
// soundness of a loop-lock.
package lp

import (
	"fmt"
	"math/big"
	"strings"
)

// Rel is a constraint relation.
type Rel int

// The constraint relations.
const (
	LE Rel = iota // <=
	GE            // >=
	EQ            // ==
)

// String renders the relation.
func (r Rel) String() string {
	switch r {
	case LE:
		return "<="
	case GE:
		return ">="
	case EQ:
		return "=="
	}
	return "?"
}

// Status is the outcome of a solve.
type Status int

// The solve outcomes.
const (
	Optimal Status = iota
	Unbounded
	Infeasible
)

// String renders the status.
func (s Status) String() string {
	switch s {
	case Optimal:
		return "optimal"
	case Unbounded:
		return "unbounded"
	case Infeasible:
		return "infeasible"
	}
	return "?"
}

// Constraint is one linear constraint sum(Coef[i]*x[i]) Rel Rhs.
type Constraint struct {
	Coef []*big.Rat
	Rel  Rel
	Rhs  *big.Rat
}

// Problem is a linear program over free (unbounded-sign) variables.
type Problem struct {
	n    int
	cons []Constraint
}

// New returns a problem with n free variables.
func New(n int) *Problem {
	return &Problem{n: n}
}

// AddConstraint adds sum(coef[i]*x[i]) rel rhs. Missing trailing
// coefficients are zero.
func (p *Problem) AddConstraint(coef []*big.Rat, rel Rel, rhs *big.Rat) {
	c := Constraint{Coef: make([]*big.Rat, p.n), Rel: rel, Rhs: new(big.Rat).Set(rhs)}
	for i := 0; i < p.n; i++ {
		if i < len(coef) && coef[i] != nil {
			c.Coef[i] = new(big.Rat).Set(coef[i])
		} else {
			c.Coef[i] = new(big.Rat)
		}
	}
	p.cons = append(p.cons, c)
}

// AddConstraintInts adds a constraint with integer coefficients.
func (p *Problem) AddConstraintInts(coef []int64, rel Rel, rhs int64) {
	rc := make([]*big.Rat, len(coef))
	for i, c := range coef {
		rc[i] = big.NewRat(c, 1)
	}
	p.AddConstraint(rc, rel, big.NewRat(rhs, 1))
}

// Maximize solves max sum(obj[i]*x[i]) subject to the constraints.
func (p *Problem) Maximize(obj []*big.Rat) (*big.Rat, []*big.Rat, Status) {
	return p.solve(obj, false)
}

// Minimize solves min sum(obj[i]*x[i]) subject to the constraints.
func (p *Problem) Minimize(obj []*big.Rat) (*big.Rat, []*big.Rat, Status) {
	v, x, st := p.solve(obj, true)
	if st == Optimal {
		v.Neg(v)
	}
	return v, x, st
}

// MaximizeInts and MinimizeInts are integer-coefficient conveniences.
func (p *Problem) MaximizeInts(obj []int64) (*big.Rat, []*big.Rat, Status) {
	return p.Maximize(ratSlice(obj, p.n))
}

// MinimizeInts minimizes an integer-coefficient objective.
func (p *Problem) MinimizeInts(obj []int64) (*big.Rat, []*big.Rat, Status) {
	return p.Minimize(ratSlice(obj, p.n))
}

func ratSlice(v []int64, n int) []*big.Rat {
	out := make([]*big.Rat, n)
	for i := 0; i < n; i++ {
		if i < len(v) {
			out[i] = big.NewRat(v[i], 1)
		} else {
			out[i] = new(big.Rat)
		}
	}
	return out
}

// solve converts to standard form and runs two-phase simplex. For
// minimization it negates the objective.
//
// Standard form: free variable x_i is split into x_i = u_i - w_i with
// u_i, w_i >= 0; every constraint becomes an equality with a slack or
// surplus variable; phase 1 drives artificial variables to zero.
func (p *Problem) solve(obj []*big.Rat, minimize bool) (*big.Rat, []*big.Rat, Status) {
	m := len(p.cons)
	// Variables: 2n split vars, then m slack/surplus (LE/GE rows), then m
	// artificials (one per row for simplicity).
	nSplit := 2 * p.n
	nSlack := 0
	slackOf := make([]int, m)
	for i, c := range p.cons {
		if c.Rel == LE || c.Rel == GE {
			slackOf[i] = nSplit + nSlack
			nSlack++
		} else {
			slackOf[i] = -1
		}
	}
	nArt := m
	total := nSplit + nSlack + nArt
	artBase := nSplit + nSlack

	// Tableau rows: A x = b with b >= 0.
	A := make([][]*big.Rat, m)
	b := make([]*big.Rat, m)
	for i, c := range p.cons {
		row := make([]*big.Rat, total)
		for j := range row {
			row[j] = new(big.Rat)
		}
		rhs := new(big.Rat).Set(c.Rhs)
		sign := big.NewRat(1, 1)
		// Normalize to nonnegative rhs.
		if rhs.Sign() < 0 {
			sign.Neg(sign)
			rhs.Neg(rhs)
		}
		for j := 0; j < p.n; j++ {
			v := new(big.Rat).Mul(c.Coef[j], sign)
			row[2*j].Set(v)
			row[2*j+1].Neg(v)
		}
		if slackOf[i] >= 0 {
			s := big.NewRat(1, 1)
			if c.Rel == GE {
				s.Neg(s)
			}
			s.Mul(s, sign)
			row[slackOf[i]].Set(s)
		}
		row[artBase+i].SetInt64(1)
		A[i] = row
		b[i] = rhs
	}

	basis := make([]int, m)
	for i := range basis {
		basis[i] = artBase + i
	}

	// Phase 1: minimize sum of artificials.
	phase1 := make([]*big.Rat, total)
	for j := range phase1 {
		phase1[j] = new(big.Rat)
	}
	for j := artBase; j < total; j++ {
		phase1[j].SetInt64(-1) // maximize -(sum of artificials)
	}
	val := simplex(A, b, basis, phase1, artBase)
	if val == nil || val.Sign() != 0 {
		return nil, nil, Infeasible
	}
	// Drive any artificial variables out of the basis if possible.
	for i, bv := range basis {
		if bv < artBase {
			continue
		}
		pivoted := false
		for j := 0; j < artBase; j++ {
			if A[i][j].Sign() != 0 {
				pivot(A, b, basis, i, j)
				pivoted = true
				break
			}
		}
		if !pivoted && b[i].Sign() != 0 {
			return nil, nil, Infeasible
		}
	}

	// Phase 2 objective over split variables.
	c2 := make([]*big.Rat, total)
	for j := range c2 {
		c2[j] = new(big.Rat)
	}
	for j := 0; j < p.n; j++ {
		v := new(big.Rat)
		if j < len(obj) && obj[j] != nil {
			v.Set(obj[j])
		}
		if minimize {
			v.Neg(v)
		}
		c2[2*j].Set(v)
		c2[2*j+1].Neg(v)
	}
	val = simplex(A, b, basis, c2, artBase)
	if val == nil {
		return nil, nil, Unbounded
	}

	// Extract the solution.
	xs := make([]*big.Rat, p.n)
	for j := range xs {
		xs[j] = new(big.Rat)
	}
	for i, bv := range basis {
		if bv < nSplit {
			j := bv / 2
			if bv%2 == 0 {
				xs[j].Add(xs[j], b[i])
			} else {
				xs[j].Sub(xs[j], b[i])
			}
		}
	}
	return val, xs, Optimal
}

// simplex maximizes c·x over the tableau using Bland's rule; artificial
// columns (>= artBlock) are never re-entered once phase 2 begins (they have
// zero/negative reduced costs there anyway, but we exclude them for
// safety). It returns the optimal value, or nil if unbounded.
func simplex(A [][]*big.Rat, b []*big.Rat, basis []int, c []*big.Rat, artBlock int) *big.Rat {
	m := len(A)
	if m == 0 {
		return new(big.Rat)
	}
	total := len(A[0])

	reducedCost := func(j int) *big.Rat {
		// c_j - c_B . A_j
		r := new(big.Rat).Set(c[j])
		for i := 0; i < m; i++ {
			if c[basis[i]].Sign() != 0 && A[i][j].Sign() != 0 {
				t := new(big.Rat).Mul(c[basis[i]], A[i][j])
				r.Sub(r, t)
			}
		}
		return r
	}

	for iter := 0; iter < 10000; iter++ {
		// Bland: entering variable = lowest index with positive reduced
		// cost.
		enter := -1
		for j := 0; j < total; j++ {
			if isArtificial(j, artBlock, c) {
				continue
			}
			if reducedCost(j).Sign() > 0 {
				enter = j
				break
			}
		}
		if enter == -1 {
			// Optimal: value = c_B . b
			val := new(big.Rat)
			for i := 0; i < m; i++ {
				if c[basis[i]].Sign() != 0 {
					t := new(big.Rat).Mul(c[basis[i]], b[i])
					val.Add(val, t)
				}
			}
			return val
		}
		// Ratio test; Bland: leaving = lowest basis index among ties.
		leave := -1
		var best *big.Rat
		for i := 0; i < m; i++ {
			if A[i][enter].Sign() <= 0 {
				continue
			}
			ratio := new(big.Rat).Quo(b[i], A[i][enter])
			if best == nil || ratio.Cmp(best) < 0 ||
				(ratio.Cmp(best) == 0 && basis[i] < basis[leave]) {
				best = ratio
				leave = i
			}
		}
		if leave == -1 {
			return nil // unbounded
		}
		pivot(A, b, basis, leave, enter)
	}
	return nil // iteration limit; treat as unbounded/failed
}

// isArtificial excludes artificial columns from entering during phase 2
// (their phase-2 cost is zero, so excluding them is safe).
func isArtificial(j, artBlock int, c []*big.Rat) bool {
	return j >= artBlock && c[j].Sign() == 0
}

// pivot performs a full tableau pivot at (row, col).
func pivot(A [][]*big.Rat, b []*big.Rat, basis []int, row, col int) {
	m := len(A)
	total := len(A[0])
	p := new(big.Rat).Set(A[row][col])
	for j := 0; j < total; j++ {
		A[row][j].Quo(A[row][j], p)
	}
	b[row].Quo(b[row], p)
	for i := 0; i < m; i++ {
		if i == row || A[i][col].Sign() == 0 {
			continue
		}
		f := new(big.Rat).Set(A[i][col])
		for j := 0; j < total; j++ {
			t := new(big.Rat).Mul(f, A[row][j])
			A[i][j].Sub(A[i][j], t)
		}
		t := new(big.Rat).Mul(f, b[row])
		b[i].Sub(b[i], t)
	}
	basis[row] = col
}

// String renders the problem for debugging.
func (p *Problem) String() string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "lp with %d vars, %d constraints\n", p.n, len(p.cons))
	for _, c := range p.cons {
		for j, v := range c.Coef {
			if v.Sign() != 0 {
				fmt.Fprintf(&sb, "%s*x%d ", v.RatString(), j)
			}
		}
		fmt.Fprintf(&sb, "%s %s\n", c.Rel, c.Rhs.RatString())
	}
	return sb.String()
}
