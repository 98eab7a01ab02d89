package core

import (
	"bytes"
	"testing"

	"repro/internal/bench"
	"repro/internal/instrument"
	"repro/internal/oskit"
)

// A recording of aget — input-heavy: every downloaded segment arrives
// through a recv — must replay bit-identically both from the decoded
// in-memory log and streamed chunk by chunk from its CHIMLOG2 encoding.
// The streamed path is the one the service's replay-verify jobs run; this
// pins its input side (StreamReplayer.Input pulling input chunks).
func TestStreamedReplayOfInputHeavyRecording(t *testing.T) {
	b := bench.ByName("aget")
	prog := load(t, b.Name, b.FullSource())
	ip, err := prog.Instrument(nil, instrument.AllOptions())
	if err != nil {
		t.Fatal(err)
	}
	world := func() *oskit.World { return b.EvalWorld(4) }
	var stream bytes.Buffer
	run, err := Pipeline{Inst: ip, World: world, Seed: 1234, HeapWords: 1 << 19, Record: true, RecordTo: &stream}.Run()
	if err != nil {
		t.Fatal(err)
	}
	if run.Log.InputCount() == 0 {
		t.Fatal("aget recorded no input records")
	}
	want := run.Recorded.Hash64()
	rc := RunConfig{World: world(), Seed: 987654, HeapWords: 1 << 19}
	mem, err := ReplayProgram(ip.Prog, ip.Table, run.Log, rc)
	if err != nil {
		t.Fatalf("in-memory replay: %v", err)
	}
	rc.World = world()
	str, err := ReplayProgramStream(ip.Prog, ip.Table, bytes.NewReader(stream.Bytes()), rc)
	if err != nil {
		t.Fatalf("streamed replay: %v", err)
	}
	if mem.Hash64() != want || str.Hash64() != want {
		t.Fatalf("replay hashes: in-memory %016x, streamed %016x; recorded %016x", mem.Hash64(), str.Hash64(), want)
	}

	// A stream cut short must fail as a divergence, never replay clean.
	rc.World = world()
	if _, err := ReplayProgramStream(ip.Prog, ip.Table, bytes.NewReader(stream.Bytes()[:stream.Len()/2]), rc); err == nil {
		t.Fatal("replay of a truncated stream succeeded")
	}
}
