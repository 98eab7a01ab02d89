package harness

import (
	"fmt"
	"testing"

	"repro/internal/bench"
	"repro/internal/core"
	"repro/internal/minic/ast"
	"repro/internal/trace"
)

// verdictSet canonicalizes a checker's races to the deduplicated
// (node, node) pair set both implementations must agree on.
func verdictSet(races []trace.Race) map[[2]ast.NodeID]bool {
	return trace.VerdictSet(races)
}

// diffCheck runs one program with the epoch checker and the full-vector
// oracle attached to the same execution's event stream and fails on any
// verdict difference. It returns the agreed race count.
func diffCheck(t *testing.T, label string, run func(ep, vc trace.RaceChecker)) int {
	t.Helper()
	ep := trace.NewChecker(0)
	vc := trace.NewVectorChecker(0)
	run(ep, vc)
	es, vs := verdictSet(ep.Races()), verdictSet(vc.Races())
	if len(es) != len(vs) {
		t.Fatalf("%s: verdict count diverged: epoch=%d vector=%d\nepoch: %v\nvector: %v",
			label, len(es), len(vs), ep.Races(), vc.Races())
	}
	for k := range vs {
		if !es[k] {
			t.Fatalf("%s: oracle race %v missing from epoch checker", label, k)
		}
	}
	return len(vs)
}

// TestCheckerDifferentialAllBenchmarks runs every benchmark — original and
// all four instrumented configurations — with the epoch checker and the
// full-vector oracle attached to the same execution, and requires
// identical race verdicts. Whether an original manifests its races is a
// property of the schedule, not the checker, so racy verdicts are only
// required in aggregate (the seed sweep below covers racy schedules);
// instrumented programs must be race-free under the extended
// synchronization set.
func TestCheckerDifferentialAllBenchmarks(t *testing.T) {
	cfg := Default()
	racyOriginals := 0
	for _, b := range bench.All() {
		b := b
		t.Run(b.Name, func(t *testing.T) {
			s, err := NewSuite(cfg, b.Name)
			if err != nil {
				t.Fatal(err)
			}
			p := s.Items[0]
			rc := core.RunConfig{World: b.EvalWorld(cfg.Workers), Seed: cfg.Seed, HeapWords: cfg.HeapWords}

			n := diffCheck(t, b.Name+"/original", func(ep, vc trace.RaceChecker) {
				rc := rc
				rc.World = b.EvalWorld(cfg.Workers)
				if r := core.CheckDynamicRacesWith(p.Prog, nil, rc, ep, vc); r.Err != nil {
					t.Fatalf("original run: %v", r.Err)
				}
			})
			if n > 0 {
				racyOriginals++
			}

			for _, cn := range ConfigNames {
				ip, err := p.Instrumented(cn)
				if err != nil {
					t.Fatal(err)
				}
				n := diffCheck(t, b.Name+"/"+cn, func(ep, vc trace.RaceChecker) {
					rc := rc
					rc.World = b.EvalWorld(cfg.Workers)
					if r := core.CheckDynamicRacesWith(ip.Prog, ip.Table, rc, ep, vc); r.Err != nil {
						t.Fatalf("%s run: %v", cn, r.Err)
					}
				})
				if n != 0 {
					t.Errorf("%s/%s: instrumented program must be race-free, both checkers found %d races", b.Name, cn, n)
				}
			}
		})
	}
	if racyOriginals == 0 {
		t.Errorf("no original benchmark manifested a race under the default seed; the racy verdict path went unexercised")
	}
}

// TestCheckerDifferentialSeedSweep sweeps randomized schedules: every
// benchmark's original (racy) program runs under 16 schedule seeds with
// both checkers on the same stream. Racy programs under varying schedules
// exercise the epoch checker's report paths and promotions far harder than
// the race-free instrumented runs.
func TestCheckerDifferentialSeedSweep(t *testing.T) {
	if testing.Short() {
		t.Skip("seed sweep is the long differential pass")
	}
	cfg := Default()
	for _, b := range bench.All() {
		b := b
		t.Run(b.Name, func(t *testing.T) {
			prog, err := core.Load(b.Name, b.FullSource())
			if err != nil {
				t.Fatal(err)
			}
			for seed := uint64(0); seed < 16; seed++ {
				label := fmt.Sprintf("%s/seed%d", b.Name, seed)
				diffCheck(t, label, func(ep, vc trace.RaceChecker) {
					rc := core.RunConfig{
						World: b.EvalWorld(cfg.Workers), Seed: seed*2654435761 + 17,
						HeapWords: cfg.HeapWords,
					}
					if r := core.CheckDynamicRacesWith(prog, nil, rc, ep, vc); r.Err != nil {
						t.Fatalf("seed %d run: %v", seed, r.Err)
					}
				})
			}
		})
	}
}
