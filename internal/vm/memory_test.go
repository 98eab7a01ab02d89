package vm

import (
	"fmt"
	"runtime"
	"strings"
	"testing"

	"repro/internal/oskit"
)

// The programs below declare no globals or strings, so the heap starts
// at GlobalBase and the default-sized regions follow it.
const (
	testStackBase = GlobalBase + DefaultHeapWords
	testMemTop    = testStackBase + maxThreads*stackWords
)

// runAt compiles src with addrs substituted for its %d verbs and runs it
// under the default configuration.
func runAt(t *testing.T, src string, addrs ...any) *Result {
	t.Helper()
	p := compileSrc(t, fmt.Sprintf(src, addrs...))
	if p.HeapBase != GlobalBase {
		t.Fatalf("heap base %d, want %d: the program has globals", p.HeapBase, GlobalBase)
	}
	return Run(p, Config{Inputs: LiveInputs{OS: oskit.NewWorld(1)}, Seed: 1})
}

// Words no run has written read 0 wherever they lie: heap past the
// allocation frontier, and the stack slots of threads never spawned.
func TestUnwrittenWordsReadZero(t *testing.T) {
	r := runAt(t, `
int main(void) {
    int *h = malloc(4);
    h[0] = 5;
    print(h[4]);
    print(h[1000]);
    int *end = %d;
    print(*end);
    int *slot1 = %d;
    print(*slot1);
    int *last = %d;
    print(*last);
    return 0;
}`, testStackBase-1, testStackBase+stackWords+7, testMemTop-1)
	if r.Err != nil {
		t.Fatal(r.Err)
	}
	if got := string(r.Output); got != "0\n0\n0\n0\n0\n" {
		t.Errorf("output %q, want five zeros", got)
	}
}

func TestStoreAtTopOfMemoryReadsBack(t *testing.T) {
	r := runAt(t, `
int main(void) {
    int *top = %d;
    *top = 42;
    print(*top);
    return 0;
}`, testMemTop-1)
	if r.Err != nil {
		t.Fatal(r.Err)
	}
	if got := string(r.Output); got != "42\n" {
		t.Errorf("output %q, want 42", got)
	}
}

// The words just outside [GlobalBase, memTop) fault with the same
// diagnostics as any other invalid address.
func TestOutOfRangeAccessFaults(t *testing.T) {
	for _, addr := range []int64{GlobalBase - 1, testMemTop} {
		for _, tc := range []struct{ src, want string }{
			{`int main(void) { int *p = %d; return *p; }`, "invalid load address %d (node "},
			{`int main(void) { int *p = %d; *p = 1; return 0; }`, "invalid store address %d (node "},
		} {
			r := runAt(t, tc.src, addr)
			want := fmt.Sprintf(tc.want, addr)
			if r.Err == nil || !strings.Contains(r.Err.Error(), want) || !strings.HasSuffix(r.Err.Error(), " in main)") {
				t.Errorf("address %d: err %v, want %q ... in main)", addr, r.Err, want)
			}
		}
	}
}

// One default-configuration run of a tiny program allocates well under
// the 64 MiB of its reserved address space: only the pages it writes.
func TestDefaultRunAllocatesOnlyTouchedPages(t *testing.T) {
	p := hotLoopProgram(t, 10)
	run := func() {
		if r := Run(p, Config{Inputs: LiveInputs{OS: oskit.NewWorld(1)}, Seed: 1}); r.Err != nil {
			t.Fatal(r.Err)
		}
	}
	run()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	run()
	runtime.ReadMemStats(&after)
	if delta := after.TotalAlloc - before.TotalAlloc; delta >= 2<<20 {
		t.Errorf("one default run allocated %d bytes, want < 2 MiB", delta)
	}
}
