package core

import (
	"testing"

	"repro/internal/instrument"
	"repro/internal/oskit"
	"repro/internal/vm"
)

// detRacy is a program whose native result varies with the schedule.
const detRacy = `
int count;
int hist[4];
void worker(int id) {
    for (int i = 0; i < 300; i++) {
        int tmp = count;
        count = tmp + 1;
    }
    hist[id] = count;
}
int main(void) {
    int t1 = spawn(worker, 0);
    int t2 = spawn(worker, 1);
    int t3 = spawn(worker, 2);
    join(t1); join(t2); join(t3);
    print(count);
    print(hist[0] + hist[1] + hist[2]);
    return 0;
}
`

// TestDeterministicExecutionSeedIndependent: under the arbiter, every
// schedule seed produces the identical result with no log — the §9
// deterministic-execution vision built on Chimera's transformation.
func TestDeterministicExecutionSeedIndependent(t *testing.T) {
	p := load(t, "det.mc", detRacy)
	ip, err := p.Instrument(nil, instrument.NaiveOptions())
	if err != nil {
		t.Fatal(err)
	}

	// Control: without the arbiter, seeds disagree (the program is racy
	// natively; instrumented-but-unarbitrated order still varies).
	varies := false
	var first uint64
	for seed := uint64(0); seed < 6; seed++ {
		r := p.RunNative(RunConfig{World: oskit.NewWorld(1), Seed: seed})
		if r.Err != nil {
			t.Fatal(r.Err)
		}
		if seed == 0 {
			first = r.Hash64()
		} else if r.Hash64() != first {
			varies = true
		}
	}
	if !varies {
		t.Fatalf("control failed: native results did not vary across seeds")
	}

	// Deterministic mode: identical across seeds.
	var want *vm.Result
	for seed := uint64(0); seed < 8; seed++ {
		r := ip.RunDeterministic(RunConfig{World: oskit.NewWorld(1), Seed: seed})
		if r.Err != nil {
			t.Fatalf("seed %d: %v", seed, r.Err)
		}
		if want == nil {
			want = r
			continue
		}
		if r.Hash64() != want.Hash64() {
			t.Fatalf("seed %d diverged: %q vs %q", seed, r.Output, want.Output)
		}
	}
	// Weak-locks record ordering; they do not repair the program's
	// non-atomic read-modify-write (paper §2.4: "Chimera's transformation
	// does not attempt to correct a given program"). Updates may still be
	// lost — but deterministically: the same ones every run.
	if len(want.Output) < 2 || want.Output[0] == '0' {
		t.Fatalf("suspicious deterministic count: %q", want.Output)
	}
}

// TestDeterministicExecutionCostModelIndependent: the arbiter uses logical
// clocks, so even perturbing the simulated cost model (the stand-in for
// hardware timing variation) leaves the result unchanged.
func TestDeterministicExecutionCostModelIndependent(t *testing.T) {
	p := load(t, "det.mc", detRacy)
	ip, err := p.Instrument(nil, instrument.NaiveOptions())
	if err != nil {
		t.Fatal(err)
	}
	costs := []vm.CostModel{
		vm.DefaultCost(),
		{Instr: 1, Call: 9, SyncOp: 77, LogEvent: 5, LogWord: 2, WeakLockOp: 3, RangeCheck: 1, Malloc: 80, Syscall: 500, ReplayGate: 4},
		{Instr: 1, Call: 1, SyncOp: 1, LogEvent: 1, LogWord: 1, WeakLockOp: 1, RangeCheck: 1, Malloc: 1, Syscall: 1, ReplayGate: 1},
	}
	var want uint64
	for i, cm := range costs {
		r := ip.RunDeterministic(RunConfig{World: oskit.NewWorld(1), Seed: 42, Cost: cm})
		if r.Err != nil {
			t.Fatalf("cost model %d: %v", i, r.Err)
		}
		if i == 0 {
			want = r.Hash64()
		} else if r.Hash64() != want {
			t.Fatalf("cost model %d changed the result", i)
		}
	}
}

// TestDeterministicExecutionWithSync: programs mixing weak-locks with
// mutexes, barriers and condvars stay deterministic under the arbiter.
func TestDeterministicExecutionWithSync(t *testing.T) {
	src := `
int m;
int bar;
int total;
int shared;
void worker(int id) {
    for (int i = 0; i < 50; i++) {
        shared = shared + id;
    }
    barrier_wait(&bar);
    lock(&m);
    total = total + shared + id;
    unlock(&m);
}
int main(void) {
    barrier_init(&bar, 3);
    int t1 = spawn(worker, 1);
    int t2 = spawn(worker, 2);
    int t3 = spawn(worker, 3);
    join(t1); join(t2); join(t3);
    print(total);
    return 0;
}
`
	p := load(t, "detsync.mc", src)
	ip, err := p.Instrument(nil, instrument.NaiveOptions())
	if err != nil {
		t.Fatal(err)
	}
	var want uint64
	for seed := uint64(0); seed < 8; seed++ {
		r := ip.RunDeterministic(RunConfig{World: oskit.NewWorld(1), Seed: seed*7 + 1})
		if r.Err != nil {
			t.Fatalf("seed %d: %v", seed, r.Err)
		}
		if seed == 0 {
			want = r.Hash64()
		} else if r.Hash64() != want {
			t.Fatalf("seed %d diverged", seed)
		}
	}
}

// TestDeterministicExecutionBenchmark: a full benchmark program (pbzip2)
// is seed-independent under the arbiter.
func TestDeterministicExecutionIO(t *testing.T) {
	src := `
int sum;
int m;
void worker(int id) {
    int buf[16];
    int fd = open(10 + id);
    int n = read(fd, buf, 16);
    int s = 0;
    for (int i = 0; i < n; i++) { s += buf[i]; }
    close(fd);
    lock(&m);
    sum = sum + s;
    unlock(&m);
    // Benign race on the same counter, guarded by weak-locks after
    // instrumentation:
    sum = sum + rnd(3);
}
int main(void) {
    int t1 = spawn(worker, 0);
    int t2 = spawn(worker, 1);
    join(t1); join(t2);
    print(sum);
    return 0;
}
`
	world := func() *oskit.World {
		w := oskit.NewWorld(5)
		w.AddFile(10, []int64{1, 2, 3})
		w.AddFile(11, []int64{10, 20})
		return w
	}
	p := load(t, "detio.mc", src)
	ip, err := p.Instrument(nil, instrument.NaiveOptions())
	if err != nil {
		t.Fatal(err)
	}
	var want uint64
	for seed := uint64(0); seed < 8; seed++ {
		r := ip.RunDeterministic(RunConfig{World: world(), Seed: seed + 11})
		if r.Err != nil {
			t.Fatalf("seed %d: %v", seed, r.Err)
		}
		if seed == 0 {
			want = r.Hash64()
		} else if r.Hash64() != want {
			t.Fatalf("seed %d diverged: %q", seed, r.Output)
		}
	}
}
