package core_test

import (
	"testing"

	"repro/internal/bench"
	"repro/internal/core"
	"repro/internal/minic/ast"
)

// Dynamic ⊆ static: every race the epoch checker observes on an original
// paper benchmark must be a pair RELAY reported. Instrumentation only
// protects reported pairs, so a race outside the report would survive
// into the "race-free" program.
func TestDynamicRacesAreReportedPairs(t *testing.T) {
	observed := 0
	for _, b := range bench.All() {
		p, err := core.Load(b.Name, b.FullSource())
		if err != nil {
			t.Fatal(err)
		}
		static := make(map[[2]ast.NodeID]bool, len(p.Races.Pairs))
		for _, pr := range p.Races.Pairs {
			static[pr.Key()] = true
		}
		for seed := uint64(1); seed <= 3; seed++ {
			races, r := core.CheckDynamicRaces(p, nil, core.RunConfig{World: b.EvalWorld(4), Seed: seed, HeapWords: 1 << 19})
			if r.Err != nil {
				t.Fatalf("%s seed %d: %v", b.Name, seed, r.Err)
			}
			for _, race := range races {
				a, c := race.NodeA, race.NodeB
				if a > c {
					a, c = c, a
				}
				if !static[[2]ast.NodeID{a, c}] {
					t.Errorf("%s seed %d: %v matches no RELAY pair", b.Name, seed, race)
				}
				observed++
			}
		}
	}
	if observed == 0 {
		t.Error("no benchmark raced under seeds 1-3; the oracle checked nothing")
	}
	t.Logf("%d dynamic race(s) checked against the RELAY report", observed)
}
