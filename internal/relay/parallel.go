package relay

import (
	"fmt"
	"hash/fnv"
	"strconv"

	"repro/internal/callgraph"
	"repro/internal/minic/types"
	"repro/internal/pointsto"
	"repro/internal/pool"
)

// The summary driver.
//
// RELAY's bottom-up composition is embarrassingly parallel across the
// callgraph SCC condensation: a summary depends only on the summaries of
// its callee SCCs, so all SCCs of one condensation wave (callgraph.Waves)
// can be analyzed concurrently, with the per-SCC fixpoint iteration kept
// sequential inside its worker. The original RELAY distributed exactly
// this schedule across a cluster (Voung et al., FSE 2007 §5); here it is
// the shared wave pool (internal/pool), and one worker is the sequential
// walk.
//
// Determinism: a summary is a pure function of the function body and the
// (completed) callee summaries, and each wave ends with a full barrier, so
// the summaries — and therefore the Report — are byte-identical for every
// worker count no matter how workers interleave. The only shared mutable
// state during a wave is each worker's own Summary structs; the summaries
// map itself is fully populated before the first wave starts.

// AnalyzeParallel runs the full RELAY pipeline with summary computation
// distributed over at most `workers` goroutines. workers <= 1 walks the
// waves sequentially; any value yields an identical Report.
func AnalyzeParallel(info *types.Info, pta *pointsto.Analysis, cg *callgraph.Graph, workers int) *Report {
	rl := &analyzer{
		info:      info,
		pta:       pta,
		cg:        cg,
		summaries: make(map[*types.FuncInfo]*Summary),
	}
	rl.mustSummarize(workers, nil)
	return rl.detectRaces()
}

// summarize computes summaries bottom-up, wave by wave. dirty, when
// non-nil, restricts the walk to the SCCs it marks (the rest already hold
// reused summaries); every walked SCC starts from an empty summary. Each
// wave ends with a full barrier (pool.RunWave returns only when the wave
// is complete, publishing its summaries); an error cancels all
// outstanding work with a higher SCC index while lower-index SCCs of the
// same wave still run, so the surfaced error is deterministic: the
// least-index fault of the first faulty wave.
func (rl *analyzer) summarize(workers int, dirty []bool) error {
	// Pre-create every walked summary sequentially so the map is never
	// written during the concurrent phase: workers mutate only the
	// Summary structs of their own SCC and read completed callee
	// summaries.
	for i, scc := range rl.cg.SCCs {
		if dirty == nil || dirty[i] {
			for _, fn := range scc {
				rl.summaries[fn] = &Summary{Fn: fn, accessKeys: make(map[string]bool)}
			}
		}
	}
	for _, wave := range rl.cg.Waves() {
		todo := wave
		if dirty != nil {
			todo = nil
			for _, si := range wave {
				if dirty[si] {
					todo = append(todo, si)
				}
			}
		}
		if err := pool.RunWave(workers, todo, rl.analyzeSCC); err != nil {
			return err // a wave failed: later waves never start
		}
	}
	return nil
}

// mustSummarize is summarize for production callers. Errors come only
// from the test-only fault hook, so a failure here is unreachable
// outside tests.
func (rl *analyzer) mustSummarize(workers int, dirty []bool) {
	if err := rl.summarize(workers, dirty); err != nil {
		panic(fmt.Sprintf("relay: summary computation failed: %v", err))
	}
}

// analyzeSCC iterates one SCC's summaries until none of them changes.
// There is no round cap: an access deep in a call cycle moves one call
// edge per round, so a fixed number of rounds silently drops the
// accesses of long cycles. Accesses only ever grow (deduplicated by node
// and lockset, capped at maxSummaryAccesses), but the net lock effects
// are recomputed each round and need not settle: a callee's NetMinus
// releases a caller's held lock and its NetPlus cancels a caller's
// release, so a recursive SCC could swing between states forever.
// fixpoint detects such a swing and widens the net effects from then
// on, which bounds the iteration.
func (rl *analyzer) analyzeSCC(i int) error {
	if rl.sccFault != nil {
		if err := rl.sccFault(i); err != nil {
			return fmt.Errorf("scc %d: %w", i, err)
		}
	}
	scc := rl.cg.SCCs[i]
	fixpoint(func(widen bool) bool {
		changed := false
		for _, fn := range scc {
			if rl.analyzeFunc(fn, widen) {
				changed = true
			}
		}
		return changed
	}, func() uint64 {
		h := fnv.New64a()
		for _, fn := range scc {
			sum := rl.summaries[fn]
			h.Write([]byte(strconv.Itoa(len(sum.Accesses)) + "|" + netKey(sum) + ";"))
		}
		return h.Sum64()
	})
	return nil
}

// fixpoint repeats round until it reports no change. Once a changed
// round leaves a state (state's fingerprint) seen after an earlier
// round, the iteration is cycling, and every later round is asked to
// widen: with NetPlus only shrinking and NetMinus only growing over
// finitely many lock representatives (and accesses only growing), the
// rounds must then settle. Widening keeps the summaries sound — a
// must-hold set may always be smaller, a may-release set larger — so a
// fingerprint collision can only widen early, never unsoundly.
// Iterations that settle without revisiting a state never widen, and
// end with the summaries plain iteration gives. The first round's state
// is not fingerprinted: most SCCs settle in their second round, and a
// cycle through that state repeats its later states too.
func fixpoint(round func(widen bool) (changed bool), state func() uint64) {
	seen := make(map[uint64]bool)
	widen := false
	for n := 1; round(widen); n++ {
		if n > 1 {
			st := state()
			widen = widen || seen[st]
			seen[st] = true
		}
	}
}
