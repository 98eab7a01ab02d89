package scenario

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/core"
	"repro/internal/oskit"
	"repro/internal/vm"
)

// runPin is the observable outcome of one VM run that a change to the
// VM's internals must leave byte-identical.
type runPin struct {
	Hash64   string      `json:"hash64"`
	MemHash  string      `json:"mem_hash"`
	Makespan int64       `json:"makespan"`
	Counters vm.Counters `json:"counters"`
}

func pinOf(r *vm.Result) runPin {
	return runPin{
		Hash64:   fmt.Sprintf("%016x", r.Hash64()),
		MemHash:  fmt.Sprintf("%016x", r.MemHash),
		Makespan: r.Makespan,
		Counters: r.Counters,
	}
}

type footprintPin struct {
	Spec   string `json:"spec"`
	Native runPin `json:"native"`
	Record runPin `json:"record"`
	Replay runPin `json:"replay"`
}

// TestDefaultFootprintGolden pins every scenario family × size class at
// the service's default VM footprint: default heap and stacks, the
// service's default "all" configuration without MHP, the record seed
// equal to the spec seed and the replay-verify job's fixed replay seed,
// with the replay streamed from the CHIMLOG2 bytes. The paper-suite and
// observed-report goldens only cover the harness's smaller heap.
func TestDefaultFootprintGolden(t *testing.T) {
	var pins []footprintPin
	for _, fam := range Families {
		for _, size := range []string{"small", "medium", "large"} {
			for seed := uint64(1); seed <= 2; seed++ {
				spec, err := Parse(fmt.Sprintf("%s:%d:%s", fam, seed, size))
				if err != nil {
					t.Fatal(err)
				}
				pins = append(pins, footprintRun(t, spec))
			}
		}
	}
	got, err := json.MarshalIndent(pins, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	got = append(got, '\n')
	path := filepath.Join("testdata", "golden", "footprint.golden.json")
	if *update {
		if err := os.WriteFile(path, got, 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("missing golden (run with -update): %v", err)
	}
	if !bytes.Equal(got, want) {
		t.Errorf("default-footprint runs diverged from %s;\nrerun with -update only for a deliberate change to simulated results", path)
	}
}

func footprintRun(t *testing.T, spec Spec) footprintPin {
	t.Helper()
	src, err := Generate(spec)
	if err != nil {
		t.Fatal(err)
	}
	run, err := core.Pipeline{Name: spec.Name(), Source: src, Load: core.LoadOptions{Workers: 1}, Config: "all"}.Run()
	if err != nil {
		t.Fatalf("%s: %v", spec, err)
	}
	native := run.Prog.RunNative(core.RunConfig{World: oskit.NewWorld(spec.Seed), Seed: spec.Seed})
	var log bytes.Buffer
	rec, _, _ := run.Inst.RecordTo(core.RunConfig{World: oskit.NewWorld(spec.Seed), Seed: spec.Seed}, &log)
	rep, err := core.ReplayProgramStream(run.Inst.Prog, run.Inst.Table, bytes.NewReader(log.Bytes()), core.RunConfig{World: oskit.NewWorld(977), Seed: 977})
	for _, r := range []*vm.Result{native, rec} {
		if r.Err != nil {
			t.Fatalf("%s: %v", spec, r.Err)
		}
	}
	if err != nil {
		t.Fatalf("%s: replay: %v", spec, err)
	}
	return footprintPin{Spec: spec.String(), Native: pinOf(native), Record: pinOf(rec), Replay: pinOf(rep)}
}
