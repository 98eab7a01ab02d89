package core_test

import (
	"testing"

	"repro/internal/bench"
	"repro/internal/core"
	"repro/internal/minic/ast"
	"repro/internal/relay"
)

// Dynamic ⊆ static: every race the epoch checker observes on an original
// paper benchmark must be a pair RELAY reported, and a pair of each of
// its MHP, precision and MHP+precision refinements. Instrumentation only
// protects reported pairs, so a race outside the report — or pruned from
// it — would survive into the "race-free" program.
func TestDynamicRacesAreReportedPairs(t *testing.T) {
	observed := 0
	for _, b := range bench.All() {
		p, err := core.Load(b.Name, b.FullSource())
		if err != nil {
			t.Fatal(err)
		}
		reports := []struct {
			name string
			rep  *relay.Report
		}{
			{"RELAY", p.Races},
			{"MHP-refined", p.RacesFor(true, false)},
			{"precision-refined", p.RacesFor(false, true)},
			{"MHP+precision-refined", p.RacesFor(true, true)},
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
				for _, rp := range reports {
					if !hasPair(rp.rep, [2]ast.NodeID{a, c}) {
						t.Errorf("%s seed %d: %v matches no pair of the %s report", b.Name, seed, race, rp.name)
					}
				}
				observed++
			}
		}
	}
	if observed == 0 {
		t.Error("no benchmark raced under seeds 1-3; the oracle checked nothing")
	}
	t.Logf("%d dynamic race(s) checked against the RELAY report and its refinements", observed)
}

func hasPair(rep *relay.Report, key [2]ast.NodeID) bool {
	for _, p := range rep.Pairs {
		if p.Key() == key {
			return true
		}
	}
	return false
}
