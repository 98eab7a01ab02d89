package core

import (
	"sync"
	"testing"
)

const cacheSrc = `
int gv;
int m;
void worker(int x) { lock(&m); gv = gv + x; unlock(&m); }
int main(void) {
    int t = spawn(worker, 1);
    gv = 7;
    join(t);
    return gv;
}
`

// Concurrent loads of one program must share a single artifact
// (single-flight), and distinct programs must not collide.
func TestCacheSharesOneArtifact(t *testing.T) {
	c := NewCache()
	const callers = 16
	progs := make([]*Program, callers)
	var wg sync.WaitGroup
	for i := 0; i < callers; i++ {
		i := i
		wg.Add(1)
		go func() {
			defer wg.Done()
			p, err := c.Load("cached", cacheSrc, LoadOptions{Workers: 2})
			if err != nil {
				t.Errorf("caller %d: %v", i, err)
				return
			}
			progs[i] = p
		}()
	}
	wg.Wait()
	for i := 1; i < callers; i++ {
		if progs[i] != progs[0] {
			t.Fatalf("caller %d got a different artifact", i)
		}
	}
	hits, misses := c.Stats()
	if misses != 1 || hits != callers-1 {
		t.Errorf("stats = %d hits / %d misses, want %d / 1", hits, misses, callers-1)
	}

	other, err := c.Load("other", cacheSrc+"\n", LoadOptions{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	if other == progs[0] {
		t.Error("distinct (name, source) shared an artifact")
	}
}

// The refined report is memoized per program and identical for every
// caller.
func TestRefinedRacesMemoized(t *testing.T) {
	c := NewCache()
	p, err := c.Load("cached", cacheSrc, LoadOptions{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	reps := make([]interface{}, 8)
	for i := range reps {
		i := i
		wg.Add(1)
		go func() {
			defer wg.Done()
			reps[i] = p.RacesFor(true, false)
		}()
	}
	wg.Wait()
	for i := 1; i < len(reps); i++ {
		if reps[i] != reps[0] {
			t.Fatalf("caller %d got a different refined report", i)
		}
	}
}

// An execution-only load must produce a runnable program without the analysis
// stages.
func TestLoadForExecution(t *testing.T) {
	p, err := LoadWith("exec", cacheSrc, LoadOptions{execOnly: true})
	if err != nil {
		t.Fatal(err)
	}
	if p.PTA != nil || p.CG != nil || p.Races != nil {
		t.Error("execution-only load ran analysis stages")
	}
	r := p.RunNative(RunConfig{Seed: 1})
	if r.Err != nil {
		t.Fatalf("run: %v", r.Err)
	}
}

// Every configuration label the harness, the service and the CLIs use
// maps to instrumenter options; anything else is rejected.
func TestConfigOptionsRejectsUnknown(t *testing.T) {
	for _, label := range []string{"instr", "instr+func", "instr+loop", "all", "all+mhp", "instr+mhp+precision", "all+precision"} {
		if _, _, _, ok := ConfigOptions(label); !ok {
			t.Errorf("ConfigOptions(%q) rejected a known label", label)
		}
	}
	for _, label := range []string{"bogus", "", "+mhp", "all+precision+mhp", "naive"} {
		if _, _, _, ok := ConfigOptions(label); ok {
			t.Errorf("ConfigOptions(%q) accepted an unknown label", label)
		}
	}
	if _, mhp, precision, _ := ConfigOptions("instr+loop+mhp+precision"); !mhp || !precision {
		t.Errorf("ConfigOptions(instr+loop+mhp+precision) = mhp %v, precision %v; want both", mhp, precision)
	}
}
