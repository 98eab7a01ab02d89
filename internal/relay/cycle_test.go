package relay

import (
	"fmt"
	"strings"
	"testing"

	"repro/internal/callgraph"
	"repro/internal/minic/parser"
	"repro/internal/minic/types"
	"repro/internal/pointsto"
	"repro/internal/summary"
)

// cycleProgram builds a recursive call cycle f1 → f2 → … → fk → f1 in
// which only fk touches the global, unlocked, and spawns the cycle's
// entry twice.
func cycleProgram(k int) string {
	var b strings.Builder
	b.WriteString("int g;\n")
	for i := 1; i <= k; i++ {
		next := i%k + 1
		fmt.Fprintf(&b, "void f%d(int d) {\n", i)
		if i == k {
			b.WriteString("    g = g + 1;\n")
		}
		fmt.Fprintf(&b, "    if (d > 0) { f%d(d - 1); }\n}\n", next)
	}
	b.WriteString(`void worker(int n) { f1(n); }
int main(void) {
    int t1 = spawn(worker, 20);
    int t2 = spawn(worker, 20);
    join(t1); join(t2);
    return g;
}
`)
	return b.String()
}

// An access deep in a call cycle reaches the thread root only after the
// SCC fixpoint has carried it around the whole cycle, one call edge per
// round. A driver that stops after a fixed number of rounds loses it for
// long cycles and reports the racy program as race-free; the driver must
// iterate until no summary changes, on every path — sequential,
// parallel, and the incremental walk over a cold and a primed store.
func TestCallCycleReachesFixpoint(t *testing.T) {
	for k := 1; k <= 12; k++ {
		info := types.MustCheck(parser.MustParse("cycle.mc", cycleProgram(k)))
		pta := pointsto.Analyze(info)
		cg := callgraph.Build(info, pta)
		var want string
		for _, workers := range []int{1, 4} {
			r := AnalyzeParallel(info, pta, cg, workers)
			if len(r.Pairs) == 0 || !racyVar(t, r, "g") {
				t.Fatalf("k=%d workers=%d: %d pairs, want the unlocked g = g + 1 in f%d reported", k, workers, len(r.Pairs), k)
			}
			if workers == 1 {
				want = r.Render()
			} else if got := r.Render(); got != want {
				t.Fatalf("k=%d: parallel report differs from sequential:\n%s\n--- want ---\n%s", k, got, want)
			}
			store := summary.NewStore()
			for _, pass := range []string{"cold", "warm"} {
				inc, _ := AnalyzeIncremental(info, pta, cg, workers, store)
				if got := inc.Render(); got != want {
					t.Fatalf("k=%d workers=%d: %s incremental report differs from fresh:\n%s\n--- want ---\n%s", k, workers, pass, got, want)
				}
			}
		}
	}
}

// swapProgram is a recursive function that rotates its lock parameters
// at every call, so the lock it ends up holding depends on the recursion
// depth: thread 0 returns from f holding m1, thread 1 holding m3. The
// g update after the call is therefore a real race.
const swapProgram = `int g;
int m1; int m2; int m3;
void f(int *a, int *b, int *c, int n) {
    lock(a);
    if (n > 0) { f(c, a, b, n - 1); }
    unlock(b);
}
void worker(int n) { f(&m1, &m2, &m3, n); g = g + 1; }
int main(void) {
    int t1 = spawn(worker, 0);
    int t2 = spawn(worker, 1);
    join(t1); join(t2);
    return g;
}
`

// The rotating-parameter recursion is the shape in which composing a
// callee's net effect both releases and acquires caller locks; its
// fixpoint must end, and end sound: f's summary may not claim any lock
// held on return, so the g update is reported.
func TestParameterSwapCycleEndsSound(t *testing.T) {
	info := types.MustCheck(parser.MustParse("swap.mc", swapProgram))
	pta := pointsto.Analyze(info)
	cg := callgraph.Build(info, pta)
	for _, workers := range []int{1, 4} {
		rl := &analyzer{info: info, pta: pta, cg: cg, summaries: make(map[*types.FuncInfo]*Summary)}
		rl.mustSummarize(workers, nil)
		if sum := rl.summaries[info.Funcs["f"]]; len(sum.NetPlus) != 0 {
			t.Errorf("workers=%d: f claims %v held on return; the held lock depends on the depth", workers, sum.NetPlus)
		}
		if r := rl.detectRaces(); !racyVar(t, r, "g") {
			t.Errorf("workers=%d: the g update after f is not reported", workers)
		}
	}
}

// A fixpoint that revisits a state is cycling: fixpoint must then ask
// for widened rounds, and stop once they settle.
func TestFixpointWidensOnRevisit(t *testing.T) {
	rounds, widened := 0, -1
	fixpoint(func(widen bool) bool {
		rounds++
		if rounds > 100 {
			t.Fatal("fixpoint did not stop")
		}
		if widen && widened < 0 {
			widened = rounds
		}
		return widened < 0 || rounds < widened+2 // widened rounds settle two rounds later
	}, func() uint64 {
		return uint64(rounds % 2) // swings 1, 0, 1, 0, …
	})
	// Rounds 2 and 3 leave fresh states, round 4 revisits round 2's, so
	// round 5 is the first widened one; widened rounds settle at round 7.
	if widened != 5 || rounds != 7 {
		t.Errorf("widened from round %d, stopped after %d; want widening from round 5, stop after 7", widened, rounds)
	}
}

// A widened round joins the new net effect with the previous one: the
// must-hold set can only shrink and the may-release set only grow.
func TestWidenedRoundJoinsNetEffects(t *testing.T) {
	info := types.MustCheck(parser.MustParse("w.mc", `int m1; int m2; int m3;
void f(void) { lock(&m1); lock(&m2); unlock(&m3); }
int main(void) { f(); return 0; }
`))
	pta := pointsto.Analyze(info)
	rl := &analyzer{info: info, pta: pta, cg: callgraph.Build(info, pta), summaries: make(map[*types.FuncInfo]*Summary)}
	fn := info.Funcs["f"]
	sum := &Summary{Fn: fn, accessKeys: make(map[string]bool)}
	rl.summaries[fn] = sum
	rl.analyzeFunc(fn, false)
	plain := fmt.Sprintf("+%v -%v", sum.NetPlus, sum.NetMinus)
	sum.NetPlus, sum.NetMinus = sum.NetPlus[:1], []string{"other"}
	rl.analyzeFunc(fn, true)
	widened := fmt.Sprintf("+%v -%v", sum.NetPlus, sum.NetMinus)
	if want := "+[G#m1 G#m2] -[G#m3]"; plain != want {
		t.Fatalf("plain round: %s, want %s", plain, want)
	}
	if want := "+[G#m1] -[G#m3 other]"; widened != want {
		t.Errorf("widened round from +[G#m1] -[other]: %s, want %s", widened, want)
	}
}
