package main

import (
	"encoding/json"
	"fmt"
	"reflect"
	"strings"
	"testing"

	"repro/internal/service"
)

// planOps draws the first n ops of every client of both service
// workloads.
func planOps(t *testing.T, seed uint64, clients, n int) ([][]analyzeOp, [][]recordOp) {
	t.Helper()
	an := make([][]analyzeOp, clients)
	rr := make([][]recordOp, clients)
	for c := 0; c < clients; c++ {
		ap := newAnalyzePlan(seed, c)
		rp := newRecordPlan(seed, c)
		for k := 0; k < n; k++ {
			an[c] = append(an[c], ap.next())
			rr[c] = append(rr[c], rp.next())
		}
	}
	return an, rr
}

func TestPlansAreAFunctionOfTheSeed(t *testing.T) {
	a1, r1 := planOps(t, 7, 2, 120)
	a2, r2 := planOps(t, 7, 2, 120)
	if !reflect.DeepEqual(a1, a2) || !reflect.DeepEqual(r1, r2) {
		t.Fatal("the same seed drew different inputs or op sequences")
	}
	a3, r3 := planOps(t, 8, 2, 120)
	if reflect.DeepEqual(a1, a3) || reflect.DeepEqual(r1, r3) {
		t.Fatal("a different seed drew the same inputs and op sequences")
	}
	if reflect.DeepEqual(a1[0], a1[1]) || reflect.DeepEqual(r1[0], r1[1]) {
		t.Fatal("two clients drew the same op sequence")
	}
}

func TestAnalyzePlanMix(t *testing.T) {
	an, _ := planOps(t, 3, 1, 400)
	kinds := map[string]int{}
	seen := map[string]bool{}
	papers := 0
	for _, op := range an[0] {
		kinds[op.Kind]++
		k := op.Prog.key()
		switch op.Kind {
		case opRepeat:
			if !seen[k] {
				t.Fatalf("repeat of %s before its first submission", op.Prog.Name)
			}
		default:
			if seen[k] {
				t.Fatalf("%s op re-submitted %s", op.Kind, op.Prog.Name)
			}
			if !strings.Contains(op.Prog.Source, "int my_checksum(") {
				t.Fatalf("%s carries no mini-libc", op.Prog.Name)
			}
		}
		if op.Kind == opFresh && !strings.Contains(op.Prog.Name, "_") {
			papers++
		}
		seen[k] = true
	}
	// Blocks of four hold two fresh ops, a repeat and an edit; the very
	// first op is fresh whatever its block drew, since nothing precedes it.
	if kinds[opFresh] < 200 || kinds[opFresh] > 201 || kinds[opRepeat] < 99 || kinds[opEdit] < 99 {
		t.Fatalf("op mix %v, want 200 fresh, 100 repeat, 100 edit (one fewer repeat or edit)", kinds)
	}
	if papers != 9 {
		t.Fatalf("%d paper sources in 200 fresh draws, want all 9", papers)
	}
}

func TestRecordPlanSpoolAndWireShares(t *testing.T) {
	_, rr := planOps(t, 5, 1, 60)
	wire := 0
	progs := map[string]bool{}
	seeds := map[uint64]bool{}
	for _, op := range rr[0] {
		if op.Wire {
			wire++
		}
		progs[op.Prog.key()] = true
		if seeds[op.RecordSeed] {
			t.Fatalf("record seed %d drawn twice", op.RecordSeed)
		}
		seeds[op.RecordSeed] = true
	}
	if wire != 15 {
		t.Fatalf("%d of 60 replays over the wire, want 15", wire)
	}
	if len(progs) > 15*recordPoolSeeds {
		t.Fatalf("%d distinct programs, the pool holds %d", len(progs), 15*recordPoolSeeds)
	}
}

// The service receives the generated inputs only: no job spec carries
// the workload seed.
func TestJobsNeverCarryTheSeed(t *testing.T) {
	const seed = 918273645546372819
	an, rr := planOps(t, seed, 2, 80)
	var specs []*service.JobSpec
	for c := range an {
		for k := range an[c] {
			specs = append(specs, &service.JobSpec{Kind: service.JobAnalyze, Tenant: tenantOf(c), Request: analyzeRequest(an[c][k].Prog)})
			op := rr[c][k]
			specs = append(specs, &service.JobSpec{Kind: service.JobRecord, Tenant: tenantOf(c),
				Name: op.Prog.Name, Source: op.Prog.Source, Config: "all", Seed: op.RecordSeed})
		}
	}
	for _, s := range specs {
		b, err := json.Marshal(s)
		if err != nil {
			t.Fatal(err)
		}
		if strings.Contains(string(b), fmt.Sprint(uint64(seed))) {
			t.Fatalf("a %s job spec carries the workload seed", s.Kind)
		}
	}
}
